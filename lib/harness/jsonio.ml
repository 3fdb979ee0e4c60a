(* Atomic artifact emission, shared by every machine-readable output
   (BENCH_resilience.json, BENCH_perf.json, campaign checkpoints and
   ledgers).  Writing goes to a same-directory temp file which is then
   renamed over the target: rename is atomic on POSIX, so a concurrent
   reader -- or a reader after a SIGKILL mid-write -- never observes a
   torn file, only the previous complete one (or none). *)

let mkdir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let with_file ~path emit =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  match emit oc with
  | () ->
    close_out oc;
    Sys.rename tmp path
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let write ~path contents = with_file ~path (fun oc -> output_string oc contents)

let write_lines ~path lines =
  with_file ~path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let read_lines ~path =
  if not (Sys.file_exists path) then None
  else Some (In_channel.with_open_text path In_channel.input_lines)
