(* Every workload at its tiny size, through the same code the benchmark
   runs: no failed samples; every metric BENCHMARK.json names is
   computed; the cost-model and IR fields and the serve response digest
   repeat exactly across two traced runs; and span self-times account
   for the traced samples' wall time to within 5%. *)

open Bench_e2e

let serve_exe = "../../bin/cecsan_serve.exe"
let spec = Jsonr.load_spec "../../BENCHMARK.json"

let run ~trace w =
  Runner.run w ~seed:1 ~sizes:Workload.tiny ~serve_exe ~trace
    ~stop:(Runner.Rounds (if trace then 2 else 1))

let value (r : Runner.result) name =
  match List.find_opt (fun (row : Ledger.row) -> row.Ledger.name = name) r.Runner.rows with
  | Some row -> row.Ledger.value
  | None -> Alcotest.failf "no row %s" name

let no_failures (r : Runner.result) =
  Alcotest.(check (list string)) "failed samples" [] r.Runner.failures;
  Alcotest.(check bool) "attempted some" true (r.Runner.attempted > 0)

let deterministic =
  [ "cost.cycle_overhead_pct"; "cost.memory_overhead_pct"; "checks.static";
    "checks.elided"; "checks.downgraded"; "checks.executed";
    "ir.size_promoted"; "ir.size_instrumented"; "ir.size_optimized";
    "cache.frontend_hits_per_build" ]

let workload_case (w : Workload.t) =
  Alcotest.test_case w.Workload.name `Quick (fun () ->
      let plain = run ~trace:false w in
      no_failures plain;
      List.iter
        (fun (row : Ledger.row) ->
           if not (row.Ledger.value > 0.) then
             Alcotest.failf "end-to-end metric %s is %g" row.Ledger.name
               row.Ledger.value)
        (Runner.select spec.Jsonr.end_to_end plain.Runner.rows);
      let a = run ~trace:true w and b = run ~trace:true w in
      no_failures a;
      ignore (Runner.select spec.Jsonr.per_layer a.Runner.rows);
      List.iter
        (fun name ->
           Alcotest.(check (float 0.)) name (value a name) (value b name))
        deterministic;
      Alcotest.(check (option string)) "response digest" a.Runner.digest
        b.Runner.digest;
      if value a "exec.full_ms" <= 0. then
        Alcotest.fail "no execution split ran";
      let unattributed = value a "stage.unattributed.share" in
      if unattributed > 0.05 then
        Alcotest.failf "spans cover only %.1f%% of sample wall time"
          (100. *. (1. -. unattributed)))

(* statistics.quantiles(xs, n=4) and statistics.median in Python *)
let quartiles () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (pair (float 1e-12) (float 1e-12))) "1..10" (2.75, 8.25)
    (Ledger.quartiles xs);
  Alcotest.(check (pair (float 1e-12) (float 1e-12))) "two values" (0.75, 2.25)
    (Ledger.quartiles [ 2.; 1. ]);
  Alcotest.(check (float 0.)) "median" 5.5 (Ledger.median xs)

let verdicts () =
  let metric =
    { Jsonr.m_name = "sample_ms_p50"; m_unit = "ms"; m_lower_better = true;
      m_bound = Some 0.1 }
  in
  let side = Compare.side in
  let steady x = side [ x; x *. 1.01; x *. 0.99; x *. 1.005; x ] in
  let check name expected o n =
    Alcotest.(check string) name expected (Compare.verdict (Some metric) o n)
  in
  check "same" "ok" (steady 10.) (steady 10.);
  check "faster" "ok" (steady 10.) (steady 8.);
  check "slower" "REGRESSION" (steady 10.) (steady 12.);
  check "noisy old side" "unresolved" (side [ 5.; 10.; 15.; 20.; 8. ])
    (steady 12.);
  check "noisy new side" "REGRESSION" (steady 10.)
    (side [ 12.; 13.; 20.; 30.; 12.5 ]);
  Alcotest.(check string) "higher is better" "REGRESSION"
    (Compare.verdict
       (Some { metric with Jsonr.m_lower_better = false })
       (steady 10.) (steady 8.))

let () =
  Alcotest.run "e2e"
    [ ("workloads", List.map workload_case Workload.all);
      ("compare",
       [ Alcotest.test_case "quartiles as Python's" `Quick quartiles;
         Alcotest.test_case "verdicts" `Quick verdicts ]) ]
