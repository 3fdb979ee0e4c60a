(* Tests of the runtime telemetry layer (lib/telemetry and its wiring):
   the per-site conservation law across check optimization, allocator
   leak/high-water gauges, snapshot merge/JSON determinism across job
   counts, and fault-injection counter hygiene. *)

let sanitizers () =
  [
    Cecsan.sanitizer ();
    Baselines.Asan.sanitizer ();
    Baselines.Asan_minus.sanitizer ();
    Baselines.Hwasan.sanitizer ();
    Baselines.Softbound_cets.sanitizer ();
    Baselines.Pacmem.sanitizer ();
    Baselines.Cryptsan.sanitizer ();
  ]

let clean_program seed =
  Fuzz.Gen.generate ~inject:false (Fuzz.Tape.fresh ~seed)

(* Instrument a fresh clone of the cached module; [boundary] is the
   first site id minted AFTER instrumentation, so sites below it are
   original check sites and sites at or above it are fresh ones the
   optimizer created (hoisted and endpoint checks). *)
let run_instrumented (san : Sanitizer.Spec.t) ~optimize src =
  let md = Sanitizer.Driver.compile_cached ~optimize:true src in
  san.Sanitizer.Spec.instrument md;
  let boundary = md.Tir.Ir.m_next_site in
  if optimize then san.Sanitizer.Spec.optimize md;
  let r =
    Sanitizer.Driver.run_module san ~externs:Fuzz.Oracle.externs md
  in
  (boundary, r)

let site_rows (s : Telemetry.Snapshot.t) =
  List.map
    (fun (row : Telemetry.Snapshot.site_row) -> (row.s_site, row))
    s.Telemetry.Snapshot.sites

(* --- the conservation law ------------------------------------------------ *)

(* Per original check site: every check either executed, was elided
   outright, or was covered by a grouped/hoisted replacement -- so at O2
   the three counters sum to exactly the O0 execution count.  100 seeded
   clean programs x all seven sanitizers (tools whose optimize pass is a
   no-op satisfy the law trivially; CECSan and ASan-- exercise it for
   real). *)
let conservation () =
  for seed = 0 to 99 do
    let p = clean_program seed in
    List.iter
      (fun (san : Sanitizer.Spec.t) ->
         match run_instrumented san ~optimize:false p.Fuzz.Gen.src with
         | exception Sanitizer.Spec.Unsupported _ -> ()
         | boundary, (r0 : Sanitizer.Driver.run_result) ->
           let _, (r2 : Sanitizer.Driver.run_result) =
             run_instrumented san ~optimize:true p.Fuzz.Gen.src
           in
           (match (r0.outcome, r2.outcome) with
            | Vm.Machine.Exit a, Vm.Machine.Exit b when a = b -> ()
            | o0, o2 ->
              Alcotest.failf "seed %d %s: O0 %a vs O2 %a" seed
                san.Sanitizer.Spec.name Vm.Machine.pp_outcome o0
                Vm.Machine.pp_outcome o2);
           let rows0 = site_rows r0.snapshot in
           let rows2 = site_rows r2.snapshot in
           let sites =
             List.sort_uniq compare
               (List.map fst rows0 @ List.map fst rows2)
           in
           List.iter
             (fun site ->
                if site < boundary then begin
                  let get rows =
                    match List.assoc_opt site rows with
                    | None -> (0, 0, 0)
                    | Some (r : Telemetry.Snapshot.site_row) ->
                      (r.s_executed, r.s_elided, r.s_covered)
                  in
                  let ex0, el0, cv0 = get rows0 in
                  let ex2, el2, cv2 = get rows2 in
                  if el0 <> 0 || cv0 <> 0 then
                    Alcotest.failf
                      "seed %d %s site %d: O0 run has optimizer marker \
                       counts (%d elided, %d covered)"
                      seed san.Sanitizer.Spec.name site el0 cv0;
                  if ex0 <> ex2 + el2 + cv2 then
                    Alcotest.failf
                      "seed %d %s site %d: executed(O0)=%d but \
                       executed+elided+covered(O2)=%d+%d+%d"
                      seed san.Sanitizer.Spec.name site ex0 ex2 el2 cv2
                end)
             sites)
      (sanitizers ())
  done

(* --- allocator and metadata-table gauges --------------------------------- *)

let gauge (r : Sanitizer.Driver.run_result) key =
  Option.value ~default:0
    (List.assoc_opt key r.snapshot.Telemetry.Snapshot.gauges)

(* Clean generated programs free everything they allocate (the Gen
   epilogue), so the VM's live-allocation count must return to zero. *)
let leak_free () =
  for seed = 0 to 99 do
    let p = clean_program seed in
    let r =
      Sanitizer.Driver.run (Cecsan.sanitizer ())
        ~externs:Fuzz.Oracle.externs p.Fuzz.Gen.src
    in
    (match r.Sanitizer.Driver.outcome with
     | Vm.Machine.Exit _ -> ()
     | o ->
       Alcotest.failf "seed %d: %a@.%s" seed Vm.Machine.pp_outcome o
         p.Fuzz.Gen.src);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: live allocations at exit" seed)
      0 (gauge r "alloc_live_exit");
    if gauge r "alloc_peak_live" <= 0 then
      Alcotest.failf "seed %d: alloc_peak_live not recorded" seed;
    if gauge r "meta_peak_live" > Vm.Layout46.tag_limit then
      Alcotest.failf "seed %d: meta_peak_live %d exceeds the Layout46 \
                      capacity %d" seed
        (gauge r "meta_peak_live") Vm.Layout46.tag_limit
  done

(* --- snapshot determinism across job counts ------------------------------ *)

(* The same campaign at -j1 and -j4 must merge to byte-identical JSON:
   snapshots merge in submission order, not completion order. *)
let campaign_json_deterministic () =
  let run jobs =
    Harness.Pool.with_pool ~jobs (fun p ->
        let pool = if jobs > 1 then Some p else None in
        let s = Fuzz.Campaign.run ?pool ~seed:0x5EED ~n:40 () in
        Telemetry.Snapshot.to_json (Fuzz.Campaign.telemetry s))
  in
  let j1 = run 1 in
  let j4 = run 4 in
  Alcotest.(check string) "campaign telemetry JSON, -j1 vs -j4" j1 j4;
  Alcotest.(check string) "campaign telemetry JSON, rerun" j1 (run 1)

(* --- fault-injection counter hygiene ------------------------------------- *)

let oom_fault () =
  match Vm.Fault.parse "oom:3" with
  | Ok spec -> Vm.Fault.of_specs [ spec ]
  | Error m -> Alcotest.failf "oom spec: %s" m

let fault_src =
  {|
int main() {
  int sum = 0;
  for (int i = 0; i < 8; i++) {
    char *p = (char*)malloc(16);
    if (p != 0) { p[0] = 1; sum = sum + p[0]; free(p); }
  }
  printf("S:%d\n", sum);
  return sum & 63;
}
|}

(* A shared Vm.Fault.t value must not accumulate state across runs:
   every State.create clones it, so each run injects the same faults and
   reports the same counts. *)
let fault_counters_per_run () =
  let fault = oom_fault () in
  let run () =
    let r =
      Sanitizer.Driver.run (Cecsan.sanitizer ())
        ~policy:(Vm.Report.Recover
                   { max_reports = Vm.Report.default_max_reports })
        ~fault fault_src
    in
    gauge r "injected_oom"
  in
  let a = run () in
  let b = run () in
  if a <= 0 then Alcotest.failf "no OOM injected (got %d)" a;
  Alcotest.(check int) "same injections on every run from one Fault.t" a b

(* The fault-table grid must be identical sequentially and at -j4; a
   shared fault injector would double-count across domains. *)
let fault_grid_job_independent () =
  let seq = Harness.Faults.run () in
  let par =
    Harness.Pool.with_pool ~jobs:4 (fun p -> Harness.Faults.run ~pool:p ())
  in
  Alcotest.(check bool) "fault table identical at -j1 and -j4" true
    (seq = par)

(* --- ring buffer bounds -------------------------------------------------- *)

let ring_bounded () =
  let t = Telemetry.create () in
  let n = Telemetry.ring_capacity + 37 in
  for i = 1 to n do
    Telemetry.record t Telemetry.Alloc i 16
  done;
  let s = Telemetry.Snapshot.capture t in
  Alcotest.(check int) "ring keeps the newest capacity events"
    Telemetry.ring_capacity
    (List.length s.Telemetry.Snapshot.events);
  Alcotest.(check int) "overflow counted as dropped" 37
    s.Telemetry.Snapshot.dropped;
  match List.rev s.Telemetry.Snapshot.events with
  | last :: _ ->
    Alcotest.(check int) "newest event survives" n last.Telemetry.ev_a
  | [] -> Alcotest.fail "ring empty"

let () =
  Alcotest.run "telemetry"
    [
      ( "telemetry",
        [
          Alcotest.test_case "check-site conservation law" `Slow
            conservation;
          Alcotest.test_case "clean programs are leak-free" `Slow
            leak_free;
          Alcotest.test_case "campaign JSON identical across -j" `Slow
            campaign_json_deterministic;
          Alcotest.test_case "fault counters reset per run" `Quick
            fault_counters_per_run;
          Alcotest.test_case "fault grid identical across -j" `Slow
            fault_grid_job_independent;
          Alcotest.test_case "event ring bounded with drop count" `Quick
            ring_bounded;
        ] );
    ]
