(* cecsan_bench: the end-to-end benchmark, MiniC text to verdict.

     cecsan_bench run --workload W --seed S [--seconds N] [--trace 0|1]
                      [--trace-file FILE]
     cecsan_bench compare OLD NEW

   [run] measures one workload in this process (serve-replay also
   drives one cecsan_serve child) and prints every metric as
   "name value unit n=samples", then one JSON result line carrying the
   metrics BENCHMARK.json names: its end-to-end metrics untraced, its
   per-layer metrics with --trace 1.  [compare] reads the saved output
   of several runs per side; see compare.ml.  bench/e2e/README.md has
   the workloads, the metrics and how to read a trace. *)

open Cmdliner
open Bench_e2e

let benchmark =
  Arg.(value & opt file "BENCHMARK.json"
       & info [ "benchmark" ] ~docv:"FILE"
           ~doc:"The benchmark definition: metric names, units and bounds.")

let run_cmd =
  let workload =
    Arg.(required
         & opt (some (enum (List.map (fun w -> (w.Workload.name, w)) Workload.all)))
             None
         & info [ "workload" ] ~docv:"W" ~doc:"The workload to run.")
  in
  let seed =
    Arg.(required & opt (some int) None
         & info [ "seed" ] ~docv:"S" ~doc:"Seed the workload's inputs derive from.")
  in
  let seconds =
    Arg.(value & opt int 10
         & info [ "seconds" ] ~docv:"N"
             ~doc:"Measure whole rounds while the next one fits in N seconds \
                   (at least one round).")
  in
  let trace =
    Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false
         & info [ "trace" ] ~docv:"0|1"
             ~doc:"1: record spans and report the per-layer metrics instead \
                   of the end-to-end ones.")
  in
  let trace_file =
    Arg.(value & opt (some string) None
         & info [ "trace-file" ] ~docv:"FILE"
             ~doc:"With --trace 1, also write every span to FILE as JSON.")
  in
  let serve_exe =
    Arg.(value & opt string "_build/default/bin/cecsan_serve.exe"
         & info [ "serve-exe" ] ~docv:"EXE"
             ~doc:"The cecsan_serve daemon serve-replay drives.")
  in
  let go (w : Workload.t) seed seconds trace trace_file serve_exe benchmark =
    if seconds < 1 then `Error (false, "--seconds: expected at least 1")
    else
      match Jsonr.load_spec benchmark with
      | exception (Jsonr.Error m | Sys_error m) -> `Error (false, m)
      | spec ->
        (* a dead daemon must surface as a failed exchange, not kill us *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        Printf.printf "# cecsan_bench run workload=%s seed=%d seconds=%d trace=%d\n%!"
          w.Workload.name seed seconds (if trace then 1 else 0);
        let r =
          Runner.run w ~seed ~sizes:Workload.default ~serve_exe
            ~stop:(Runner.Seconds seconds) ~trace
        in
        List.iter Ledger.print_row r.Runner.rows;
        List.iter (Printf.printf "# failed: %s\n") r.Runner.failures;
        Option.iter (Printf.printf "# response digest: %s\n") r.Runner.digest;
        (match trace_file with
         | Some path when trace -> Span.write ~path (Span.all ())
         | _ -> ());
        let metrics =
          if trace then spec.Jsonr.per_layer else spec.Jsonr.end_to_end
        in
        print_endline
          (Ledger.result_line ~correct:(r.Runner.failed = 0)
             ~attempted:r.Runner.attempted ~failed:r.Runner.failed
             (Runner.select metrics r.Runner.rows));
        `Ok 0
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload and print its metrics.")
    Term.(ret (const go $ workload $ seed $ seconds $ trace $ trace_file
               $ serve_exe $ benchmark))

let compare_cmd =
  let file n docv =
    Arg.(required & pos n (some file) None & info [] ~docv
           ~doc:"Saved standard output of cecsan_bench run invocations.")
  in
  let go old_path new_path benchmark =
    match Jsonr.load_spec benchmark with
    | exception (Jsonr.Error m | Sys_error m) -> `Error (false, m)
    | spec ->
      let regressions = Compare.run ~spec ~old_path ~new_path in
      `Ok (if regressions > 0 then 1 else 0)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare two sets of runs metric by metric against the bounds \
             in BENCHMARK.json; exits 1 on a regression.")
    Term.(ret (const go $ file 0 "OLD" $ file 1 "NEW" $ benchmark))

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "cecsan_bench" ~doc:"end-to-end benchmark, MiniC text to verdict")
          [ run_cmd; compare_cmd ]))
