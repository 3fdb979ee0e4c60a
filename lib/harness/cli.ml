(* The shared command-line flags.  A malformed value is a cmdliner
   usage error (exit 124) naming the flag and the rejected text, in
   every binary alike. *)

open Cmdliner

let int_conv ~expected ok =
  let parse s =
    match int_of_string_opt s with
    | Some v when ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
  in
  Arg.conv (parse, Format.pp_print_int)

let nonneg_int = int_conv ~expected:"a non-negative integer" (fun v -> v >= 0)
let pos_int = int_conv ~expected:"a positive integer" (fun v -> v > 0)

let one_of names =
  let parse s =
    if List.mem s names then Ok s
    else
      Error
        (`Msg
           (Printf.sprintf "unknown name %S, expected one of %s" s
              (String.concat ", " names)))
  in
  Arg.conv (parse, Format.pp_print_string)

let fault_spec =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Vm.Fault.parse s)),
      fun fmt s -> Format.pp_print_string fmt (Vm.Fault.spec_to_string s) )

let jobs ~doc =
  let resolve = function
    | 0 -> Domain.recommended_domain_count ()
    | n -> n
  in
  Term.(
    const resolve
    $ Arg.(value & opt nonneg_int 1
           & info [ "j"; "jobs" ] ~docv:"J"
               ~doc:(doc ^ "  $(docv) = 0 means one per core.")))

let seed ~doc =
  let hex = Arg.conv (Arg.conv_parser nonneg_int, fun fmt v ->
      Format.fprintf fmt "0x%x" v)
  in
  Arg.(value & opt hex 0x5EED & info [ "seed" ] ~docv:"SEED" ~doc)

let backend ~doc =
  Arg.(value
       & opt (some (enum [ ("interp", Vm.Machine.Interp);
                           ("jit", Vm.Machine.Jit) ])) None
       & info [ "backend" ] ~docv:"BACKEND" ~doc)

let telemetry_json ~doc =
  Arg.(value & opt (some string) None
       & info [ "telemetry-json" ] ~docv:"FILE" ~doc)

let write_snapshot ~path snap =
  Jsonio.write ~path (Telemetry.Snapshot.to_json snap ^ "\n")
