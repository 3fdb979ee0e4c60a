(* The span recorder behind [--trace 1].

   A span is one call into a layer, recorded by the benchmark around a
   public function: name, start and end on the monotonic clock, the
   enclosing span and the sample it belongs to.  Spans are appended to
   an in-memory list and only written out when the run ends, so
   recording costs two clock reads and one allocation.  Untraced runs
   never call into this module. *)

type t = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  sample : int;
  t0 : int64;
  t1 : int64;
}

let now_ns () : int = Int64.to_int (Monotonic_clock.now ())

let spans : t list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let sample = ref (-1)

(* The duration of the last sample span, once it has closed. *)
let sample_ns = ref 0

let reset () =
  spans := [];
  sample_ns := 0;
  next_id := 0;
  stack := [];
  sample := -1

(* Runs [f] inside a span.  The span is recorded even when [f] raises,
   so a failed sample still accounts for the time it took. *)
let record name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let t0 = Monotonic_clock.now () in
  let close () =
    let t1 = Monotonic_clock.now () in
    stack := List.tl !stack;
    spans := { id; name; parent; sample = !sample; t0; t1 } :: !spans
  in
  match f () with
  | v -> close (); v
  | exception e -> close (); raise e

(* Opens the root span of sample [n]; every span under it carries [n]. *)
let sample_span n name f =
  sample := n;
  Fun.protect
    ~finally:(fun () ->
        sample := -1;
        sample_ns :=
          match !spans with
          | s :: _ -> Int64.to_int (Int64.sub s.t1 s.t0)
          | [] -> 0)
    (fun () -> record name f)

let all () = List.rev !spans

let duration s = Int64.to_int (Int64.sub s.t1 s.t0)

(* Self time: a span's duration minus the part its direct children
   cover (children never overlap: the recorder is single-threaded). *)
let self_times (xs : t list) : (t * int) list =
  let child_ns = Hashtbl.create 256 in
  List.iter
    (fun s ->
       if s.parent >= 0 then
         Hashtbl.replace child_ns s.parent
           (duration s
            + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    xs;
  List.map
    (fun s ->
       (s, duration s - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id)))
    xs

let to_json_line (s : t) =
  Printf.sprintf
    "{\"id\": %d, \"parent\": %d, \"sample\": %d, \"name\": %s, \
     \"start_ns\": %Ld, \"end_ns\": %Ld}"
    s.id s.parent s.sample (Ledger.json_string s.name) s.t0 s.t1

(* One span per line, in start order: a JSON array that line tools can
   still grep. *)
let write ~path (xs : t list) =
  let xs = List.stable_sort (fun a b -> Int64.compare a.t0 b.t0) xs in
  let n = List.length xs in
  Harness.Jsonio.with_file ~path (fun oc ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
           output_string oc (to_json_line s);
           output_string oc (if i + 1 < n then ",\n" else "\n"))
        xs;
      output_string oc "]\n")
