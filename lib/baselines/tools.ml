(* The tool table, in the order [cecsan_cli --help] lists it. *)

type t = { key : string; make : unit -> Sanitizer.Spec.t; baseline : bool }

let all =
  let tool ?(baseline = false) key make = { key; make; baseline } in
  let cecsan key config = tool key (fun () -> Cecsan.sanitizer ~config ()) in
  [ cecsan "cecsan" Cecsan.Config.default;
    cecsan "cecsan-chain" Cecsan.Config.with_chain;
    cecsan "cecsan-nosubobj" Cecsan.Config.no_subobject;
    cecsan "cecsan-noopt" Cecsan.Config.no_opts;
    tool ~baseline:true "asan" (fun () -> Asan.sanitizer ());
    tool ~baseline:true "asan--" Asan_minus.sanitizer;
    tool ~baseline:true "hwasan" Hwasan.sanitizer;
    tool ~baseline:true "softbound" Softbound_cets.sanitizer;
    tool ~baseline:true "pacmem" Pacmem.sanitizer;
    tool ~baseline:true "cryptsan" Cryptsan.sanitizer;
    tool "none" (fun () -> Sanitizer.Spec.none) ]

let baselines = List.filter (fun t -> t.baseline) all
let keys = List.map (fun t -> t.key)
let find key = List.find_opt (fun t -> String.equal t.key key) all
let make key = Option.map (fun t -> t.make ()) (find key)

let baseline_specs keys =
  List.filter_map
    (fun k ->
       match find k with
       | Some t when t.baseline -> Some (t.make ())
       | _ -> None)
    keys
