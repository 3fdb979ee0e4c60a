(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section (DESIGN.md experiment index), plus the
   optimization ablation, the robustness tables and bechamel
   microbenchmarks of the core runtime data structures.  One experiment
   per run; `dune exec bench/main.exe -- --help` lists them and the
   modifiers. *)

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
let run_verify ?pool () =
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
    match
      Option.bind san.Sanitizer.Spec.verify (fun spec ->
          Tir.Verify.absint_ctx spec md)
    with
    | Some cx ->
      let n = ref 0 in
      Tir.Ir.iter_funcs md (fun f ->
          if not f.Tir.Ir.f_external then
            n := !n + Tir.Absint.facts (Tir.Absint.analyze cx f));
      !n
    | None -> 0
  in
  (* one cell per kernel x tool: independent, so they run on the pool
     and come back in submission order *)
  let cell ((w : Workloads.Spec2006.t), (san : Sanitizer.Spec.t)) =
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
      (pre, post, facts, t1 -. t0 +. (t3 -. t2), ta)
    with
    | exception Sanitizer.Spec.Unsupported _ -> None
    | r -> Some r
  in
  let cells =
    List.concat_map
      (fun w -> List.map (fun san -> (w, san)) tools)
      (Workloads.Spec2006.all @ Workloads.Spec2017.all)
  in
  Format.printf "  %-14s %-14s %9s %9s %9s %7s %10s %10s@." "kernel" "tool"
    "accesses" "covered" "witnesses" "facts" "verify" "absint";
  let results =
    timed "verify" (fun () -> Harness.Pool.maybe_map pool cell cells)
  in
  let rows =
    List.filter_map
      (fun (((w : Workloads.Spec2006.t), (san : Sanitizer.Spec.t)), r) ->
         let kernel = w.Workloads.Spec2006.w_name
         and tool = san.Sanitizer.Spec.name in
         match r with
         | None ->
           Format.printf "  %-14s %-14s %9s@." kernel tool "excluded";
           None
         | Some (pre, post, facts, dt, ta) ->
           let issues =
             List.length pre.Tir.Verify.r_errors
             + List.length post.Tir.Verify.r_errors
             + (if post.Tir.Verify.r_covered < pre.Tir.Verify.r_covered
                then 1
                else 0)
           in
           Format.printf
             "  %-14s %-14s %9d %9d %9d %7d %7.1f ms %7.1f ms%s@." kernel tool
             post.Tir.Verify.r_accesses post.Tir.Verify.r_covered
             post.Tir.Verify.r_witnesses facts (dt *. 1000.) (ta *. 1000.)
             (if issues = 0 then ""
              else Printf.sprintf "  (%d issue(s))" issues);
           Some
             (kernel, tool, post.Tir.Verify.r_accesses,
              post.Tir.Verify.r_covered, post.Tir.Verify.r_witnesses, facts,
              issues))
      (List.combine cells results)
  in
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

(* --- command line ------------------------------------------------------------ *)

open Cmdliner

type mode =
  | Everything
  | Table1 | Table2 | Table3 | Table4 | Table5
  | Fig3 | Fig4
  | Ablation | Faults | Resilience | Micro | Verify | Perf | Smoke
  | Fuzz of int
  | Fuzz_guided of int
  | Serve_sim of int

(* Experiments are listed apart from the modifiers in --help. *)
let experiments = "EXPERIMENTS"

let experiment = Arg.info ~docs:experiments

(* The experiment flags, each naming one mode.  At most one may be
   given: [mode] rejects a second one before anything runs. *)
let flag_mode =
  Arg.(value & vflag None
         [ (Some Ablation,
            experiment [ "ablation" ]
              ~doc:"The optimization ablation (section II.F).");
           (Some Faults,
            experiment [ "faults" ]
              ~doc:"The fault-injection degradation table.");
           (Some Resilience,
            experiment [ "resilience" ]
              ~doc:"The supervised-campaign degradation table under \
                    injected harness faults (writes \
                    BENCH_resilience.json).");
           (Some Micro,
            experiment [ "micro" ]
              ~doc:"Bechamel microbenchmarks of the core runtime data \
                    structures.");
           (Some Verify,
            experiment [ "verify" ]
              ~doc:"Tir.Verify coverage, replayed witnesses and absint \
                    facts per SPEC kernel and tool, with wall time \
                    (writes BENCH_verify.json, which carries no wall \
                    clock).");
           (Some Perf,
            experiment [ "perf" ]
              ~doc:"The interp-vs-jit wall-clock grid (writes \
                    BENCH_perf.json).");
           (Some Smoke,
            experiment [ "smoke" ]
              ~doc:"A <30 s validation subset: Table I, two Juliet \
                    families, one Table IV row.") ])

let valued long ~doc values =
  Arg.(value & opt (some values) None & experiment [ long ] ~docv:"N" ~doc)

let numbered modes =
  Arg.enum (List.map (fun (n, m) -> (string_of_int n, m)) modes)

let counted long ~doc mk =
  Term.(const (Option.map mk) $ valued long ~doc Harness.Cli.pos_int)

let mode =
  let pick modes =
    match List.filter_map Fun.id modes with
    | [] -> `Ok Everything
    | [ m ] -> `Ok m
    | _ ->
      `Error
        (true,
         "one experiment per run: --table, --fig, --ablation, --faults, \
          --resilience, --micro, --fuzz, --fuzz-guided, --verify, --perf, \
          --serve-sim and --smoke exclude each other")
  in
  Term.(
    ret
      (const (fun a b c d e f -> pick [ a; b; c; d; e; f ])
       $ flag_mode
       $ valued "table" ~doc:"Table $(docv) (1-5)."
           (numbered [ (1, Table1); (2, Table2); (3, Table3); (4, Table4);
                       (5, Table5) ])
       $ valued "fig" ~doc:"Figure $(docv) (3 or 4)."
           (numbered [ (3, Fig3); (4, Fig4) ])
       $ counted "fuzz" ~doc:"An $(docv)-program differential fuzz campaign."
           (fun n -> Fuzz n)
       $ counted "fuzz-guided"
           ~doc:"The coverage-guided campaign against the blind baseline \
                 at the same $(docv)-program budget (writes \
                 BENCH_fuzzcov.json)."
           (fun n -> Fuzz_guided n)
       $ counted "serve-sim"
           ~doc:"$(docv) synthetic requests through the serve engine \
                 under the deterministic simulated clock (writes \
                 BENCH_serve.json)."
           (fun n -> Serve_sim n)))

let positive name ~docv ~default ~doc =
  Arg.(value & opt Harness.Cli.pos_int default & info [ name ] ~docv ~doc)

let flag name ~doc = Arg.(value & flag & info [ name ] ~doc)

let main mode jobs seed backend profile timings telemetry_json sim_workers
    serve_batch =
  run_seed := seed;
  profile_on := profile;
  Harness.Pool.with_jobs jobs (fun pool ->
      (match mode with
       | Table1 -> run_table1 ()
       | Table2 -> run_table2 ?pool ?backend ()
       | Table3 -> run_table3 ?backend ()
       | Table4 -> run_table4 ?pool ?backend ()
       | Table5 -> run_table5 ?pool ?backend ()
       | Fig3 -> run_fig3 ?backend ()
       | Fig4 -> run_fig4 ?backend ()
       | Ablation -> run_ablation ?pool ?backend ()
       | Faults -> run_faults ?pool ?backend ()
       | Resilience -> run_resilience ?pool ?backend ()
       | Micro -> microbenches ()
       | Fuzz n -> run_fuzz ?pool ?backend ~jobs n
       | Fuzz_guided n -> run_fuzz_guided ?pool ?backend ~jobs n
       | Serve_sim n ->
         run_serve_sim ?pool ?backend ~sim_workers ~serve_batch n
       | Verify -> run_verify ?pool ()
       | Perf -> run_perf ()
       | Smoke -> run_smoke ?pool ?backend ()
       | Everything when profile ->
         (* bare --profile: the overhead tables, with hot-site tables *)
         run_table4 ?pool ?backend ();
         run_table5 ?pool ?backend ()
       | Everything ->
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
         Format.printf "@.All experiments completed.@.");
      Option.iter
        (fun path ->
           Harness.Cli.write_snapshot ~path !merged_telemetry;
           Format.printf "@.Telemetry snapshot written to %s@." path)
        telemetry_json;
      if timings then begin
        (* --timings owns the perf-trajectory artifact: every timed
           bench run also re-measures the interp-vs-jit grid so the
           speedup is tracked PR-over-PR. *)
        if not !perf_done then run_perf ();
        report_timings ~jobs
      end)

let cmd =
  let doc = "regenerate the CECSan paper's evaluation" in
  let man =
    [ `S Manpage.s_description;
      `P "Runs one experiment of the paper's evaluation section (DESIGN.md \
          experiment index) per invocation: a table, a figure, the \
          optimization ablation, a robustness table, a fuzz campaign, the \
          verification or perf grid, the serve simulation, the \
          microbenchmarks or the smoke subset.  With no experiment flag \
          it runs Tables I-V, Figures 3-4, the ablation, the fault table \
          and the microbenchmarks in turn.";
      `P "Every section header carries the run seed, so a report is \
          reproducible from its own text.  Outputs other than wall clock \
          are bit-for-bit identical at any $(b,-j) and on either \
          $(b,--backend).";
      `S experiments;
      `P "At most one of these per run; none runs the full evaluation.";
      `S Manpage.s_options;
      `P "Modifiers, valid with any experiment." ]
  in
  Cmd.v
    (Cmd.info "main" ~doc ~man)
    Term.(
      const main $ mode
      $ Harness.Cli.jobs ~doc:"Run the grid on $(docv) domains."
      $ Harness.Cli.seed
          ~doc:"Run seed, echoed in every section header."
      $ Harness.Cli.backend
          ~doc:"Execute every run on $(docv) ($(b,interp) or $(b,jit)); \
                results are identical on either, only wall clock moves."
      $ flag "profile"
          ~doc:"Print each kernel's top-10 hottest check sites (CECSan, \
                with IR origins) next to the overhead tables; on its own, \
                run Tables IV and V with profiles."
      $ flag "timings"
          ~doc:"Print wall clock per experiment phase at the end, and \
                emit the BENCH_perf.json perf-trajectory artifact."
      $ Harness.Cli.telemetry_json
          ~doc:"Write the merged telemetry snapshot of every run in the \
                session to $(docv) as deterministic JSON (byte-identical \
                across reruns and across $(b,-j))."
      $ positive "sim-workers" ~docv:"C" ~default:4
          ~doc:"Simulated servers of the $(b,--serve-sim) queue model."
      $ positive "serve-batch" ~docv:"B" ~default:16
          ~doc:"Requests per batch in the $(b,--serve-sim) queue model.")

let () = exit (Cmd.eval cmd)
