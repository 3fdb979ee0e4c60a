(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section (DESIGN.md experiment index), plus the
   optimization ablation and bechamel microbenchmarks of the core
   runtime data structures.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- --table N    -- one table (1-5)
     dune exec bench/main.exe -- --fig N      -- figure 3 or 4
     dune exec bench/main.exe -- --ablation   -- optimization ablation
     dune exec bench/main.exe -- --faults     -- fault-injection table
     dune exec bench/main.exe -- --resilience -- supervised-campaign
                                                degradation table (writes
                                                BENCH_resilience.json)
     dune exec bench/main.exe -- --micro      -- bechamel microbenches
     dune exec bench/main.exe -- --fuzz N     -- N-program differential
                                                fuzz campaign
     dune exec bench/main.exe -- --fuzz-guided N
                                              -- coverage-guided campaign vs
                                                the blind baseline at the
                                                same budget (writes
                                                BENCH_fuzzcov.json)
     dune exec bench/main.exe -- --verify     -- Tir.Verify wall time and
                                                coverage per SPEC kernel
     dune exec bench/main.exe -- --perf       -- interp-vs-jit wall-clock
                                                grid (writes BENCH_perf.json)
     dune exec bench/main.exe -- --serve-sim N
                                              -- N synthetic requests through
                                                the serve engine under the
                                                deterministic simulated clock
                                                (writes BENCH_serve.json);
                                                --sim-workers C (default 4)
                                                and --serve-batch B (default
                                                16) shape the queue model
     dune exec bench/main.exe -- --smoke      -- <30 s validation subset

   Modifiers:
     -j N        run the grid on N domains (N=0: one per core); also
                 settable via CECSAN_JOBS.  Default 1 (sequential).
                 Results are bit-for-bit identical at any -j.
     --seed S    run seed (default 0x5EED), echoed in every section
                 header so any report is reproducible from its log
     --backend B execute every run on backend B (interp | jit); results
                 are bit-for-bit identical on either, only wall clock
                 moves
     --timings   print wall-clock per experiment phase at the end, and
                 emit the BENCH_perf.json perf-trajectory artifact
     --profile   print each kernel's top-10 hottest check sites (CECSan,
                 with IR origins) next to the overhead tables; on its
                 own, runs the overhead tables with profiles
     --telemetry-json FILE
                 write the merged telemetry snapshot of every run in the
                 session as deterministic JSON (byte-identical across
                 reruns and across -j)
*)

let fmt = Format.std_formatter

(* Every experiment header carries the run seed: a report is
   reproducible from its own text. *)
let run_seed = ref 0x5EED

let section title =
  let title = Printf.sprintf "%s [seed=0x%x]" title !run_seed in
  Format.printf "@.%s@.%s@.@." title (String.make (String.length title) '=')

(* --- per-phase wall-clock accounting (--timings) --------------------------- *)

let timings : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  timings := (name, Unix.gettimeofday () -. t0) :: !timings;
  r

let report_timings ~jobs =
  Format.printf "@.Timings (wall clock, -j %d)@.%s@." jobs
    (String.make 44 '-');
  let total = ref 0.0 in
  List.iter
    (fun (name, t) ->
       total := !total +. t;
       Format.printf "  %-30s %9.2f s@." name t)
    (List.rev !timings);
  Format.printf "%s@.  %-30s %9.2f s@." (String.make 44 '-') "total" !total

(* --- telemetry aggregation (--profile / --telemetry-json) ------------------ *)

let profile_on = ref false

(* Snapshots merge in the order rows come back from the pool (submission
   order) and measurements appear in a row (lineup order) -- so the
   merged snapshot, and its JSON, are identical at any -j. *)
let merged_telemetry = ref Telemetry.Snapshot.empty

let absorb snap =
  merged_telemetry := Telemetry.Snapshot.merge !merged_telemetry snap

(* Folds every measurement's snapshot into the session aggregate and,
   under --profile, prints each kernel's top-10 hottest CECSan check
   sites with their IR origins. *)
let profile_rows (rows : Harness.Overhead.row list) =
  List.iter
    (fun (r : Harness.Overhead.row) ->
       List.iter
         (fun (m : Harness.Overhead.measurement) ->
            absorb m.Harness.Overhead.m_snapshot)
         r.Harness.Overhead.r_measurements;
       if !profile_on then
         match
           List.find_opt
             (fun (m : Harness.Overhead.measurement) ->
                String.equal m.Harness.Overhead.m_tool "CECSan")
             r.Harness.Overhead.r_measurements
         with
         | None -> ()
         | Some m ->
           Format.printf "@.  %s: hottest check sites (CECSan)@."
             r.Harness.Overhead.r_workload;
           let label site =
             List.assoc_opt site m.Harness.Overhead.m_labels
           in
           Telemetry.Snapshot.report ~top:10 ~label fmt
             m.Harness.Overhead.m_snapshot)
    rows

(* --- experiments ----------------------------------------------------------- *)

let run_table1 () =
  section "Experiment: Table I";
  timed "table1" (fun () -> Harness.Tables.table1 fmt ())

let run_table2 ?pool ?backend () =
  section "Experiment: Table II (985 cases x 6 sanitizers, bad+good)";
  let d =
    timed "table2/run" (fun () ->
        Harness.Tables.run_table2 ?pool ?backend ())
  in
  Harness.Tables.table2 fmt d

let run_table3 ?backend () =
  section "Experiment: Table III (Linux-Flaw models under CECSan)";
  timed "table3" (fun () -> Harness.Tables.table3 ?backend fmt ())

let run_table4 ?pool ?backend () =
  section "Experiment: Table IV (SPEC2006-like kernels)";
  let rows =
    timed "table4/run" (fun () ->
        Harness.Overhead.measure ?pool ?backend Workloads.Spec2006.all)
  in
  Harness.Tables.table4 fmt rows;
  profile_rows rows

let run_table5 ?pool ?backend () =
  section "Experiment: Table V (SPEC2017-like kernels)";
  let rows =
    timed "table5/run" (fun () ->
        Harness.Overhead.measure ?pool ?backend Workloads.Spec2017.all)
  in
  Harness.Tables.table5 fmt rows;
  profile_rows rows

let run_fig3 ?backend () =
  section "Experiment: Figure 3";
  timed "fig3" (fun () -> Harness.Figures.fig3 ?backend fmt ())

let run_fig4 ?backend () =
  section "Experiment: Figure 4";
  timed "fig4" (fun () -> Harness.Figures.fig4 ?backend fmt ())

let run_ablation ?pool ?backend () =
  section "Experiment: optimization ablation (section II.F)";
  timed "ablation" (fun () ->
      Harness.Tables.ablation ?pool ?backend fmt Workloads.Spec2006.all)

let run_faults ?pool ?backend () =
  section "Experiment: graceful degradation under injected faults";
  let d =
    timed "faults/run" (fun () -> Harness.Faults.run ?pool ?backend ())
  in
  Harness.Faults.render fmt d

(* --resilience: the supervised-execution degradation table -- the same
   seeded campaign under none / crash / fuel injection scenarios, with
   the ledger written as a machine-readable artifact for CI. *)
let run_resilience ?pool ?backend () =
  section "Experiment: resilience under injected harness faults";
  let rows =
    timed "resilience" (fun () ->
        Fuzz.Campaign.resilience ?pool ?backend ~seed:!run_seed ())
  in
  Fuzz.Campaign.render_resilience fmt rows;
  let file = "BENCH_resilience.json" in
  Harness.Jsonio.write ~path:file (Fuzz.Campaign.resilience_json rows ^ "\n");
  Format.printf "@.Resilience table written to %s@." file;
  if not (List.for_all (fun r -> r.Fuzz.Campaign.rs_pass) rows) then exit 1

let run_fuzz ?pool ?backend ~jobs n =
  section "Experiment: differential fuzz campaign";
  let s =
    timed "fuzz" (fun () ->
        Fuzz.Campaign.run ?pool ?backend ~seed:!run_seed ~n ())
  in
  absorb (Fuzz.Campaign.telemetry s);
  Fuzz.Campaign.render fmt ~jobs s;
  if not (Fuzz.Campaign.passed s) then exit 1

(* --fuzz-guided N: the coverage-guided campaign against the blind
   baseline at the same program budget.  Shard size is pinned at 10 so
   the feedback cadence (and hence the artifact) does not depend on the
   default; BENCH_fuzzcov.json carries no wall clock and is
   byte-identical at any -j, including after kill-and-resume. *)
let run_fuzz_guided ?pool ?backend ~jobs n =
  section "Experiment: coverage-guided fuzz campaign";
  let s =
    timed "fuzz-guided" (fun () ->
        Fuzz.Campaign.run ?pool ?backend ~schedule:Alternate ~shard_size:10
          ~seed:!run_seed ~n ())
  in
  absorb (Fuzz.Campaign.telemetry s);
  Fuzz.Campaign.render fmt ~jobs s;
  let blind =
    timed "fuzz-blind" (fun () ->
        Fuzz.Campaign.blind_coverage ?pool ?backend ~seed:!run_seed ~n ())
  in
  Format.printf "  blind baseline    : %d bits over %d sites@."
    (Fuzz.Coverage.cardinal blind) (Fuzz.Coverage.sites blind);
  let file = "BENCH_fuzzcov.json" in
  Harness.Jsonio.write ~path:file
    (Fuzz.Campaign.fuzzcov_json ~blind s ^ "\n");
  Format.printf "@.Coverage artifact written to %s@." file;
  if not (Fuzz.Campaign.passed s) then exit 1

(* --verify: run the Tir.Verify static verifier over every SPEC kernel
   under every sanitizer and report wall time plus how many unsafe
   accesses it proved covered (the translation-validation half of the
   section II.F story).  For tools carrying an absint model the table
   adds the abstract-interpretation facts proved over the optimized IR,
   the elision witnesses replayed, and the wall time of the replay-side
   absint runs; the whole grid (minus wall clock, which would break
   byte-for-byte artifact determinism) lands in BENCH_verify.json. *)
let run_verify () =
  section "Experiment: static verification (Tir.Verify, SPEC kernels)";
  let tools =
    [ Cecsan.sanitizer ();
      Baselines.Asan.sanitizer ();
      Baselines.Asan_minus.sanitizer ();
      Baselines.Hwasan.sanitizer ();
      Baselines.Softbound_cets.sanitizer ();
      Baselines.Pacmem.sanitizer ();
      Baselines.Cryptsan.sanitizer () ]
  in
  (* independent absint run over the post-optimization module: the same
     state the verifier replays witnesses against, counted as facts *)
  let absint_facts (san : Sanitizer.Spec.t) md =
    match san.Sanitizer.Spec.verify with
    | Some { Tir.Verify.absint = Some model; hazard_intrinsics; _ } ->
      let pure =
        Tir.Analysis.pure_callees md
          ~is_hazard:(fun n -> List.mem n hazard_intrinsics)
      in
      let cx = Tir.Absint.make_ctx model ~pure md in
      let n = ref 0 in
      Tir.Ir.iter_funcs md (fun f ->
          if not f.Tir.Ir.f_external then
            n := !n + (Tir.Absint.analyze cx f).Tir.Absint.su_facts);
      !n
    | _ -> 0
  in
  let rows = ref [] in
  Format.printf "  %-14s %-14s %9s %9s %9s %7s %10s %10s@." "kernel" "tool"
    "accesses" "covered" "witnesses" "facts" "verify" "absint";
  timed "verify" (fun () ->
      List.iter
        (fun (w : Workloads.Spec2006.t) ->
           List.iter
             (fun (san : Sanitizer.Spec.t) ->
                match
                  let md =
                    Sanitizer.Driver.compile_cached ~optimize:true
                      w.Workloads.Spec2006.w_source
                  in
                  let spec = san.Sanitizer.Spec.verify in
                  san.Sanitizer.Spec.instrument md;
                  let t0 = Unix.gettimeofday () in
                  let pre = Tir.Verify.check ?spec md in
                  let t1 = Unix.gettimeofday () in
                  san.Sanitizer.Spec.optimize md;
                  let t2 = Unix.gettimeofday () in
                  let post = Tir.Verify.check ?spec md in
                  let t3 = Unix.gettimeofday () in
                  let facts = absint_facts san md in
                  let ta = Unix.gettimeofday () -. t3 in
                  let dt = t1 -. t0 +. (t3 -. t2) in
                  (pre, post, facts, dt, ta)
                with
                | exception Sanitizer.Spec.Unsupported _ ->
                  Format.printf "  %-14s %-14s %9s@."
                    w.Workloads.Spec2006.w_name san.Sanitizer.Spec.name
                    "excluded"
                | pre, post, facts, dt, ta ->
                  let issues =
                    List.length pre.Tir.Verify.r_errors
                    + List.length post.Tir.Verify.r_errors
                    + (if post.Tir.Verify.r_covered
                          < pre.Tir.Verify.r_covered
                       then 1
                       else 0)
                  in
                  rows :=
                    (w.Workloads.Spec2006.w_name, san.Sanitizer.Spec.name,
                     post.Tir.Verify.r_accesses, post.Tir.Verify.r_covered,
                     post.Tir.Verify.r_witnesses, facts, issues)
                    :: !rows;
                  Format.printf
                    "  %-14s %-14s %9d %9d %9d %7d %7.1f ms %7.1f ms%s@."
                    w.Workloads.Spec2006.w_name san.Sanitizer.Spec.name
                    post.Tir.Verify.r_accesses post.Tir.Verify.r_covered
                    post.Tir.Verify.r_witnesses facts (dt *. 1000.)
                    (ta *. 1000.)
                    (if issues = 0 then ""
                     else Printf.sprintf "  (%d issue(s))" issues))
             tools)
        (Workloads.Spec2006.all @ Workloads.Spec2017.all));
  let rows = List.rev !rows in
  let file = "BENCH_verify.json" in
  let row (k, s, acc, cov, wit, facts, issues) =
    Json.Obj
      [ ("kernel", Json.Str k); ("sanitizer", Json.Str s);
        ("accesses", Json.Int acc); ("covered", Json.Int cov);
        ("witnesses", Json.Int wit); ("absint_facts", Json.Int facts);
        ("issues", Json.Int issues) ]
  in
  Harness.Jsonio.write ~path:file
    (Json.to_string Json.Spaced
       (Json.Obj
          [ ("schema", Json.Str "cecsan-bench-verify/2");
            ("rows", Json.List (List.map row rows)) ])
     ^ "\n");
  Format.printf "@.Verification grid written to %s@." file

(* --perf: the backend perf trajectory.  Each SPEC2006 kernel runs on
   both backends (uninstrumented and under CECSan), best-of-N after a
   warmup run per backend so resolution and jit-compile caches are
   steady-state, and the grid is written to BENCH_perf.json (schema in
   EXPERIMENTS.md).  The headline geomean is the uninstrumented grid:
   that is the dispatch-bound configuration the jit targets, while
   sanitizer intrinsic work is backend-invariant and dilutes the
   ratio identically on both backends. *)
let perf_done = ref false

let run_perf () =
  perf_done := true;
  section "Experiment: backend perf trajectory (interp vs jit)";
  let reps = 5 in
  let configs =
    [ ("none", Sanitizer.Spec.none); ("cecsan", Cecsan.sanitizer ()) ]
  in
  let rows =
    timed "perf-grid" (fun () ->
        List.concat_map
          (fun (sname, san) ->
             List.map
               (fun (w : Workloads.Spec2006.t) ->
                  let md =
                    Sanitizer.Driver.build san w.Workloads.Spec2006.w_source
                  in
                  let bench backend =
                    ignore (Sanitizer.Driver.run_module san ~backend md);
                    let best = ref infinity in
                    for _ = 1 to reps do
                      let t0 = Unix.gettimeofday () in
                      ignore (Sanitizer.Driver.run_module san ~backend md);
                      let dt = Unix.gettimeofday () -. t0 in
                      if dt < !best then best := dt
                    done;
                    !best
                  in
                  let ti = bench Vm.Machine.Interp in
                  let tj = bench Vm.Machine.Jit in
                  (sname, w.Workloads.Spec2006.w_name, ti, tj, ti /. tj))
               Workloads.Spec2006.all)
          configs)
  in
  Format.printf "  %-8s %-14s %12s %12s %9s@." "config" "kernel" "interp"
    "jit" "speedup";
  List.iter
    (fun (s, k, ti, tj, r) ->
       Format.printf "  %-8s %-14s %9.1f ms %9.1f ms %8.2fx@." s k
         (ti *. 1000.) (tj *. 1000.) r)
    rows;
  let geo sname =
    let rs =
      List.filter_map
        (fun (s, _, _, _, r) -> if String.equal s sname then Some r else None)
        rows
    in
    exp (List.fold_left (fun a r -> a +. log r) 0. rs /. float (List.length rs))
  in
  let g_none = geo "none" and g_cecsan = geo "cecsan" in
  Format.printf "@.  geomean speedup: %.2fx uninstrumented, %.2fx under \
                 CECSan@."
    g_none g_cecsan;
  let file = "BENCH_perf.json" in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"cecsan-bench-perf/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"reps\": %d,\n" reps);
  Buffer.add_string buf "  \"kernels\": [\n";
  List.iteri
    (fun i (s, k, ti, tj, r) ->
       Buffer.add_string buf
         (Printf.sprintf
            "    {\"kernel\": %S, \"sanitizer\": %S, \"interp_ms\": %.3f, \
             \"jit_ms\": %.3f, \"speedup\": %.3f}%s\n"
            k s (ti *. 1000.) (tj *. 1000.) r
            (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"geomean_speedup\": %.3f,\n  \"geomean_speedup_by_sanitizer\": \
        {\"none\": %.3f, \"cecsan\": %.3f}\n}\n"
       g_none g_none g_cecsan);
  Harness.Jsonio.write ~path:file (Buffer.contents buf);
  Format.printf "  Perf grid written to %s@." file

(* --serve-sim N: replay N synthetic queued requests through the
   Serve engine under the deterministic simulated clock and emit the
   BENCH_serve.json latency/throughput artifact.  Every number is
   byte-identical at any -j: the queue model runs on sc_workers
   SIMULATED servers, real domains only gather service times faster. *)
let run_serve_sim ?pool ?backend ~sim_workers ~serve_batch n =
  section "Experiment: serve load simulation";
  let cfg =
    { (Serve.Sim.default_cfg ~seed:!run_seed ~requests:n) with
      Serve.Sim.sc_workers = sim_workers;
      sc_batch = serve_batch;
      sc_backend = backend }
  in
  let report = timed "serve-sim" (fun () -> Serve.Sim.run ?pool cfg) in
  absorb report.Serve.Sim.sr_aggregate.Serve.Engine.agg_snapshot;
  Serve.Sim.render fmt report;
  let file = "BENCH_serve.json" in
  Serve.Sim.write_json ~path:file report;
  Format.printf "@.Serve simulation written to %s@." file

(* --smoke: a quick validation subset -- one overhead-table row, a few
   Juliet families -- for local sanity checks and CI. *)
let run_smoke ?pool ?backend () =
  section "Smoke: Table I";
  timed "smoke/table1" (fun () -> Harness.Tables.table1 fmt ());
  section "Smoke: Table II subset (CWE415 + CWE416 families)";
  let cases =
    Juliet.Suite.cases_for Juliet.Case.C415
    @ Juliet.Suite.cases_for Juliet.Case.C416
  in
  let d =
    timed "smoke/table2" (fun () ->
        Harness.Tables.run_table2 ?pool ~cases ?backend ())
  in
  Harness.Tables.table2 fmt d;
  section "Smoke: Table IV row (mcf)";
  let rows =
    timed "smoke/table4" (fun () ->
        Harness.Overhead.measure ?pool ?backend
          [ Workloads.Spec2006.mcf ])
  in
  Harness.Tables.table4 fmt rows;
  profile_rows rows

(* --- bechamel microbenchmarks of the core data structures ----------------- *)

let microbenches () =
  let open Bechamel in
  let open Toolkit in
  (* one Test.make per experiment family: the core operation dominating
     that experiment's inner loop *)
  let st = Vm.State.create () in
  let tbl = Cecsan.Meta_table.create st in
  let t_meta_alloc_release =
    (* Tables I-III: metadata entry create/release (Figure 2 free list) *)
    Test.make ~name:"meta_table.alloc+release (tables 1-3)"
      (Staged.stage (fun () ->
           let p = Cecsan.Meta_table.alloc tbl ~base:0x2000_0000 ~size:64 in
           Cecsan.Meta_table.release tbl (Vm.Layout46.tag_of p)))
  in
  let st_check = Vm.State.create () in
  let rt, _vrt = Cecsan.Runtime.create () in
  let tagged = Cecsan.Runtime.cecsan_malloc rt st_check 64 in
  let t_check =
    (* Table IV: Algorithm 1 dereference check *)
    Test.make ~name:"cecsan.check_deref (table 4)"
      (Staged.stage (fun () ->
           ignore
             (Cecsan.Runtime.check_deref rt st_check ~write:false ~size:8
                ~site:(-1) ~cost:Cecsan.Costs.check tagged)))
  in
  let st2 = Vm.State.create () in
  let shadow_addr = Vm.Layout46.heap_base in
  Baselines.Shadow.unpoison st2 shadow_addr 64;
  let t_shadow =
    (* Table IV baseline: ASan shadow check *)
    Test.make ~name:"asan.shadow_check (table 4)"
      (Staged.stage (fun () ->
           ignore (Baselines.Shadow.access_ok st2 shadow_addr 8)))
  in
  let quick_md =
    Sanitizer.Driver.build (Cecsan.sanitizer ())
      "int main() { int s = 0; for (int i = 0; i < 100; i++) s += i; \
       return s & 255; }"
  in
  let t_vm =
    (* Table V: end-to-end instrumented execution throughput *)
    Test.make ~name:"vm.run instrumented loop (table 5)"
      (Staged.stage (fun () ->
           ignore
             (Sanitizer.Driver.run_module (Cecsan.sanitizer ()) quick_md)))
  in
  let tests = [ t_meta_alloc_release; t_check; t_shadow; t_vm ] in
  section "Microbenchmarks (bechamel, ns/run)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  List.iter
    (fun test ->
       let results = Benchmark.all cfg instances test in
       let results = Analyze.all ols Instance.monotonic_clock results in
       Hashtbl.iter
         (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] ->
              Format.printf "  %-42s %10.1f ns/run@." name est
            | _ -> Format.printf "  %-42s (no estimate)@." name)
         results)
    tests

let () =
  (* Measurement runs report verifier findings instead of failing on
     them (the tests keep the Strict default). *)
  Sanitizer.Driver.verify_mode := Sanitizer.Driver.Warn;
  let args = Array.to_list Sys.argv in
  let has flag = List.mem flag args in
  let arg_after flag =
    let rec go = function
      | a :: b :: _ when String.equal a flag -> Some b
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let jobs =
    match arg_after "-j" with
    | Some s ->
      (match int_of_string_opt s with
       | Some 0 -> Domain.recommended_domain_count ()
       | Some n when n > 0 -> n
       | Some _ | None ->
         Format.eprintf "-j %s: expected a non-negative integer@." s;
         exit 2)
    | None -> Harness.Pool.default_jobs ()
  in
  (match arg_after "--seed" with
   | Some s ->
     (match int_of_string_opt s with
      | Some v when v >= 0 -> run_seed := v
      | Some _ | None ->
        Format.eprintf "--seed %s: expected a non-negative integer@." s;
        exit 2)
   | None -> ());
  (* --backend is parsed into a value threaded explicitly through every
     experiment entry point *)
  let backend =
    match arg_after "--backend" with
    | Some "interp" -> Some Vm.Machine.Interp
    | Some "jit" -> Some Vm.Machine.Jit
    | Some s ->
      Format.eprintf "--backend %s: expected interp or jit@." s;
      exit 2
    | None -> None
  in
  profile_on := has "--profile";
  Harness.Pool.with_pool ~jobs (fun p ->
      let pool = if jobs > 1 then Some p else None in
      (match (arg_after "--table", arg_after "--fig") with
       | Some "1", _ -> run_table1 ()
       | Some "2", _ -> run_table2 ?pool ?backend ()
       | Some "3", _ -> run_table3 ?backend ()
       | Some "4", _ -> run_table4 ?pool ?backend ()
       | Some "5", _ -> run_table5 ?pool ?backend ()
       | _, Some "3" -> run_fig3 ?backend ()
       | _, Some "4" -> run_fig4 ?backend ()
       | _ ->
         if has "--ablation" then run_ablation ?pool ?backend ()
         else if has "--faults" then run_faults ?pool ?backend ()
         else if has "--resilience" then run_resilience ?pool ?backend ()
         else if has "--micro" then microbenches ()
         else if has "--fuzz" then begin
           match Option.bind (arg_after "--fuzz") int_of_string_opt with
           | Some n when n > 0 -> run_fuzz ?pool ?backend ~jobs n
           | _ ->
             Format.eprintf "--fuzz: expected a positive program count@.";
             exit 2
         end
         else if has "--fuzz-guided" then begin
           match
             Option.bind (arg_after "--fuzz-guided") int_of_string_opt
           with
           | Some n when n > 0 -> run_fuzz_guided ?pool ?backend ~jobs n
           | _ ->
             Format.eprintf
               "--fuzz-guided: expected a positive program count@.";
             exit 2
         end
         else if has "--serve-sim" then begin
           let int_opt ~default flag =
             match arg_after flag with
             | None -> default
             | Some s ->
               (match int_of_string_opt s with
                | Some v when v > 0 -> v
                | _ ->
                  Format.eprintf "%s %s: expected a positive integer@."
                    flag s;
                  exit 2)
           in
           match
             Option.bind (arg_after "--serve-sim") int_of_string_opt
           with
           | Some n when n > 0 ->
             run_serve_sim ?pool ?backend
               ~sim_workers:(int_opt ~default:4 "--sim-workers")
               ~serve_batch:(int_opt ~default:16 "--serve-batch") n
           | _ ->
             Format.eprintf "--serve-sim: expected a positive request \
                             count@.";
             exit 2
         end
         else if has "--verify" then run_verify ()
         else if has "--perf" then run_perf ()
         else if has "--smoke" then run_smoke ?pool ?backend ()
         else if has "--profile" then begin
           (* bare --profile: the overhead tables, with hot-site tables *)
           run_table4 ?pool ?backend ();
           run_table5 ?pool ?backend ()
         end
         else begin
           run_table1 ();
           run_table2 ?pool ?backend ();
           run_table3 ?backend ();
           run_table4 ?pool ?backend ();
           run_table5 ?pool ?backend ();
           run_fig3 ?backend ();
           run_fig4 ?backend ();
           run_ablation ?pool ?backend ();
           run_faults ?pool ?backend ();
           microbenches ();
           Format.printf "@.All experiments completed.@."
         end);
      (match arg_after "--telemetry-json" with
       | Some file ->
         Harness.Jsonio.write ~path:file
           (Telemetry.Snapshot.to_json !merged_telemetry ^ "\n");
         Format.printf "@.Telemetry snapshot written to %s@." file
       | None -> ());
      if has "--timings" then begin
        (* --timings owns the perf-trajectory artifact: every timed
           bench run also re-measures the interp-vs-jit grid so the
           speedup is tracked PR-over-PR. *)
        if not !perf_done then run_perf ();
        report_timings ~jobs
      end)
