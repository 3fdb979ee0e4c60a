(* Fuzz.Campaign: seeded differential campaigns over Harness.Pool,
   supervised and resumable.

   Program i of a campaign gets the independent seed
   [Tape.mix campaign_seed i] (odd indices carry a planted bug), so the
   grid is embarrassingly parallel and the verdict stream is identical
   at any job count: Pool.map_results keeps submission order, and
   shrinking of the (rare) failures happens sequentially afterwards.

   One shard loop serves every schedule: a blind campaign is the
   generation-only schedule of the guided loop, with the feedback step
   (coverage, corpus, per-phase counters, coverage rows) skipped.

   Supervision (this file's robustness layer):

   - every per-program task runs under [Harness.Supervise.run]: a task
     that dies -- injected crash, fuel exhaustion, stack overflow --
     is retried under the deterministic count-based policy and then
     QUARANTINED (one ledger entry) instead of aborting the campaign;
   - the campaign proceeds in shards of [shard_size] programs and folds
     each shard into one [Checkpoint.t] state record, which after each
     shard is written to an atomic checkpoint (temp-file + rename), so
     a SIGKILL costs at most one shard;
   - [resume:true] restores that record and continues from the first
     unfinished shard.  Everything the final ledgers derive from is in
     the record, so a killed-and-resumed campaign produces
     byte-identical mismatch/quarantine ledgers to an uninterrupted
     one, at any -j. *)

let sp = Printf.sprintf

type schedule = Checkpoint.schedule = Blind | Alternate | Mutate_only

type shrunk = {
  s_row : Checkpoint.row;
  s_failures : Oracle.failure list;
  s_src : string;
  s_tape : int array;
  s_lines : int;
}

type summary = {
  state : Checkpoint.t;
  shrunk : shrunk list;
}

let inject_of_index i = i land 1 = 1

(* The pipeline-fuel budget carried by a [Fuel n] fault spec, if any. *)
let fuel_budget_of_specs specs =
  List.fold_left
    (fun acc s -> match s with Vm.Fault.Fuel b -> Some b | _ -> acc)
    None specs

(* --- the per-program job ------------------------------------------------- *)

(* A mutation phase carries the corpus snapshot taken at shard start. *)
type phase = Gen_phase | Mut_phase of Corpus.t

type job = {
  row : Checkpoint.row;
  snap : Telemetry.Snapshot.t;  (* the CECSan(-O2) run's telemetry *)
  cov : Coverage.t;
  label : string;               (* "gen" or "mutate:<op>" *)
  tape : int array;             (* normalized (recorded) decision tape *)
}

(* One self-contained job: everything derived from (campaign_seed, i)
   and the phase.  With fault specs given, program i gets its own
   injector seeded from its derived seed, threaded into every oracle
   run; a [Fuel b] spec additionally puts the generator under a fresh
   [b]-step budget (the compile/verify phases get theirs inside
   Driver.run, bridged from the injector).  A generation job is the
   blind program at index i; a mutation job derives its whole schedule
   -- base pick, partner pick, operator, operator randomness -- from the
   same per-program seed over the corpus snapshot, so it is a pure
   function of (campaign_seed, i, corpus-at-shard-start) and
   independent of pool interleaving. *)
let run_one ~tool_names ~fault_specs ~campaign_seed ?backend phase i : job =
  let seed = Tape.mix campaign_seed i in
  let fault =
    match fault_specs with
    | [] -> None
    | specs -> Some (Vm.Fault.of_specs ~seed specs)
  in
  let fuel =
    Option.map
      (fun b -> Tir.Fuel.make ~phase:"gen" ~budget:b)
      (fuel_budget_of_specs fault_specs)
  in
  let generate = Gen.generate ~inject:(inject_of_index i) ?fuel in
  let label, p =
    match phase with
    | Gen_phase -> "gen", generate (Tape.fresh ~seed)
    | Mut_phase corpus ->
      let rng = Tape.fresh ~seed in
      let favored = Corpus.favored corpus in
      let base =
        (List.nth favored (Tape.draw rng (List.length favored))).Corpus.e_tape
      in
      let partner =
        Corpus.nth_tape corpus (Tape.draw rng (Corpus.size corpus))
      in
      let op, tape = Mutate.mutate ~rng ~partner base in
      sp "mutate:%s" (Mutate.op_name op), generate (Tape.replay tape)
  in
  let tools = Baselines.Tools.baseline_specs tool_names in
  let fs, snap, cov = Oracle.evaluate_cov ~tools ?fault ?backend p in
  { row = { index = i; seed; plan = p.Gen.plan;
            failures = List.map Oracle.failure_name fs };
    snap; cov; label; tape = p.Gen.tape }

(* Shrinks a failing case: the minimized tape must regenerate a program
   that still exhibits every one of the original failure labels.  The
   row's fault injector (if any) threads into every candidate
   evaluation, and [fuel] bounds the whole minimization. *)
let shrink_failure ~tool_names ?fault ?fuel ?backend ~inject
    (p : Gen.program) (failures : Oracle.failure list) : shrunk option =
  let tools = Baselines.Tools.baseline_specs tool_names in
  let wanted = List.map Oracle.failure_name failures in
  let evaluate_tape tape =
    let p' = Gen.generate ~inject (Tape.replay tape) in
    (p', Oracle.evaluate ~tools ?fault ?backend p')
  in
  let still_fails tape =
    let _, fs = evaluate_tape tape in
    let names = List.map Oracle.failure_name fs in
    List.for_all (fun w -> List.mem w names) wanted
  in
  if not (still_fails p.Gen.tape) then None
  else
    let best = Shrink.minimize ?fuel ~still_fails p.Gen.tape in
    let p_min, fs_min = evaluate_tape best in
    Some
      { s_row = { index = -1; seed = 0; plan = p_min.Gen.plan;
                  failures = List.map Oracle.failure_name fs_min };
        s_failures = fs_min;
        s_src = p_min.Gen.src;
        s_tape = best;
        s_lines = Gen.line_count p_min.Gen.src }

(* --- the shard loop ------------------------------------------------------- *)

(* Generation until the corpus is nonempty; then [Alternate] mutates odd
   shards and [Mutate_only] every shard.  The corpus snapshot is taken
   once at shard start, so every job in the shard is a pure function of
   (seed, index, snapshot) regardless of -j. *)
let phase_of_shard (st : Checkpoint.t) =
  match st.schedule with
  | Blind -> Gen_phase
  | _ when Corpus.size st.corpus = 0 -> Gen_phase
  | Alternate when st.shards_done land 1 = 0 -> Gen_phase
  | Alternate | Mutate_only -> Mut_phase st.corpus

(* A task settles to its job or its quarantine entry, plus its retries.
   An exception that escaped the supervisor itself (should not happen)
   becomes a zero-retry quarantine rather than killing the campaign. *)
let settle ~campaign_seed i = function
  | Ok { Harness.Supervise.result; retries } -> (result, retries)
  | Error e ->
    let q_class, q_phase = Harness.Supervise.classify e in
    ( Error
        { Harness.Supervise.q_task = i; q_seed = Tape.mix campaign_seed i;
          q_class; q_phase; q_attempts = 1; q_detail = Printexc.to_string e },
      0 )

(* The guided feedback step, sequential in submission order: union the
   bitmap, admit coverage-novel tapes, count programs and admissions
   per phase, and record the shard's coverage row. *)
let feedback (st : Checkpoint.t) sidx phase jobs : Checkpoint.t =
  let step (st : Checkpoint.t) j =
    let corpus, admitted =
      Corpus.admit st.corpus ~seed:j.row.seed ~phase:j.label ~tape:j.tape
        ~cov:j.cov
    in
    let st = { st with coverage = Coverage.union st.coverage j.cov; corpus } in
    let adm = Bool.to_int admitted in
    match phase with
    | Gen_phase ->
      { st with gen_programs = st.gen_programs + 1;
                gen_admitted = st.gen_admitted + adm }
    | Mut_phase _ ->
      { st with mut_programs = st.mut_programs + 1;
                mut_admitted = st.mut_admitted + adm }
  in
  let st = List.fold_left step st jobs in
  let cov_row =
    { Checkpoint.cr_shard = sidx;
      cr_phase =
        (match phase with Gen_phase -> "gen" | Mut_phase _ -> "mutate");
      cr_bits = Coverage.cardinal st.coverage;
      cr_sites = Coverage.sites st.coverage;
      cr_corpus = Corpus.size st.corpus }
  in
  { st with cov_rows = st.cov_rows @ [ cov_row ] }

let run ?pool ?(tool_names = []) ?(max_shrink = 5) ?(faults = [])
    ?(policy = Harness.Supervise.default_policy) ?checkpoint
    ?(resume = false) ?(shard_size = 256) ?stop_after_shards ?backend
    ?(schedule = Blind) ~seed ~n () : summary =
  let fresh =
    { Checkpoint.campaign_seed = seed; n; shard_size = max 1 shard_size;
      tool_names; faults = List.map Vm.Fault.spec_to_string faults;
      schedule; shards_done = 0; resumed_shards = 0; retries = 0;
      rows = []; quarantine = []; snapshot = Telemetry.Snapshot.empty;
      coverage = Coverage.empty; corpus = Corpus.empty; cov_rows = [];
      gen_programs = 0; mut_programs = 0; gen_admitted = 0;
      mut_admitted = 0 }
  in
  (* restore: a missing, corrupt or inconsistent checkpoint is a fresh
     start; a checkpoint for a DIFFERENT campaign is a caller error *)
  let config (c : Checkpoint.t) =
    (c.campaign_seed, c.n, c.shard_size, c.tool_names, c.faults, c.schedule)
  in
  let start =
    match resume, checkpoint with
    | false, _ -> fresh
    | true, None -> invalid_arg "Campaign.run: resume requires a checkpoint dir"
    | true, Some dir ->
      (match
         Option.bind
           (Harness.Jsonio.read_lines
              ~path:(Filename.concat dir Checkpoint.file))
           Checkpoint.of_lines
       with
       | None -> fresh
       | Some ck when config ck <> config fresh ->
         invalid_arg
           (sp "Campaign.run: checkpoint in %s is for a different campaign \
                (seed/n/shard_size/tools/faults/schedule mismatch)" dir)
       | Some ck ->
         (* every shard we do NOT recompute this process counts as resumed *)
         { ck with resumed_shards = ck.resumed_shards + ck.shards_done })
  in
  let save (st : Checkpoint.t) =
    Option.iter
      (fun dir ->
         Harness.Jsonio.mkdir dir;
         (* the standalone corpus file is a derived artifact (for CI cmp
            and external consumers); resume reads the embedded copy, so
            a kill between the two atomic writes cannot desynchronize
            the restored state *)
         if schedule <> Blind then ignore (Corpus.save ~dir st.corpus);
         Harness.Jsonio.write_lines
           ~path:(Filename.concat dir Checkpoint.file) (Checkpoint.to_lines st))
      checkpoint
  in
  let shard_size = fresh.shard_size in
  let process_shard (st : Checkpoint.t) =
    let sidx = st.shards_done in
    let lo = sidx * shard_size in
    let indices = List.init (min n (lo + shard_size) - lo) (fun k -> lo + k) in
    let phase = phase_of_shard st in
    let settled =
      Harness.Pool.maybe_map_results pool
        (fun i ->
           Harness.Supervise.run ~policy ~task:i ~seed:(Tape.mix seed i)
             (fun ~attempt:_ ->
                run_one ~tool_names ~fault_specs:faults ~campaign_seed:seed
                  ?backend phase i))
        indices
      |> List.map2 (settle ~campaign_seed:seed) indices
    in
    let jobs = List.filter_map (fun (r, _) -> Result.to_option r) settled in
    let st =
      { st with
        shards_done = sidx + 1;
        retries = List.fold_left (fun acc (_, r) -> acc + r) st.retries settled;
        rows = st.rows @ List.map (fun j -> j.row) jobs;
        quarantine =
          st.quarantine
          @ List.filter_map
            (function Error e, _ -> Some e | Ok _, _ -> None) settled;
        snapshot =
          List.fold_left
            (fun acc j -> Telemetry.Snapshot.merge acc j.snap)
            st.snapshot jobs }
    in
    let st = if schedule = Blind then st else feedback st sidx phase jobs in
    save st;
    st
  in
  let total = Checkpoint.total_shards fresh in
  let last =
    match stop_after_shards with
    | None -> total
    | Some k -> min total (start.shards_done + max 0 k)
  in
  let rec loop (st : Checkpoint.t) =
    if st.shards_done < last then loop (process_shard st) else st
  in
  let st = loop start in
  (* shrink only a finished blind campaign (a partial [stop_after_shards]
     run is checkpoint fodder, not a report; mutation rows are not
     regenerable from their seeds alone).  Failing rows are regenerated
     from their seeds, so a resumed campaign shrinks exactly what an
     uninterrupted one would; shrink-phase quarantines land after the
     campaign's own entries. *)
  let failing =
    if schedule <> Blind || st.shards_done < total then []
    else
      List.filter (fun (r : Checkpoint.row) -> r.failures <> []) st.rows
      |> List.filteri (fun i _ -> i < max_shrink)
  in
  let shrink_one (st : Checkpoint.t) (r : Checkpoint.row) =
    let inject = inject_of_index r.index in
    let task () =
      let fault =
        match faults with
        | [] -> None
        | specs -> Some (Vm.Fault.of_specs ~seed:r.seed specs)
      in
      let fuel =
        Option.map
          (fun b -> Tir.Fuel.make ~phase:"shrink" ~budget:b)
          (fuel_budget_of_specs faults)
      in
      let p = Gen.generate ~inject (Tape.fresh ~seed:r.seed) in
      let tools = Baselines.Tools.baseline_specs tool_names in
      let fs = Oracle.evaluate ~tools ?fault ?backend p in
      match shrink_failure ~tool_names ?fault ?fuel ?backend ~inject p fs with
      | Some s ->
        { s with s_row = { s.s_row with index = r.index; seed = r.seed } }
      | None ->
        (* non-reproducible from its own tape: report unshrunk *)
        { s_row = r; s_failures = fs; s_src = p.Gen.src; s_tape = p.Gen.tape;
          s_lines = Gen.line_count p.Gen.src }
    in
    let o =
      Harness.Supervise.run ~policy ~task:r.index ~seed:r.seed
        (fun ~attempt:_ -> task ())
    in
    let st = { st with retries = st.retries + o.retries } in
    match o.result with
    | Ok sh -> (st, Some sh)
    | Error entry -> ({ st with quarantine = st.quarantine @ [ entry ] }, None)
  in
  let state, shrunk = List.fold_left_map shrink_one st failing in
  { state; shrunk = List.filter_map Fun.id shrunk }

(* --- derived verdicts ---------------------------------------------------- *)

(* The oracle verdict classes [passed] judges, as (report label,
   failure-label prefix). *)
let verdict_classes =
  [ "false positives", "false-positive";
    "false negatives", "false-negative";
    "divergences", "divergence";
    "optimizer-unsound", "opt-unsound";
    "misclassified", "misclassified";
    "generator-invalid", "gen-invalid" ]

let count_failures (s : summary) prefix =
  List.fold_left
    (fun acc (r : Checkpoint.row) ->
       acc + List.length (List.filter (String.starts_with ~prefix) r.failures))
    0 s.state.rows

let passed s =
  List.for_all (fun (_, prefix) -> count_failures s prefix = 0) verdict_classes

let fuel_exhausted (s : summary) =
  List.length
    (List.filter
       (fun e -> String.equal e.Harness.Supervise.q_class "fuel")
       s.state.quarantine)

(* Supervise counters ride the snapshot only when nonzero, so a
   fault-free campaign's telemetry is unchanged. *)
let telemetry (s : summary) =
  let extra =
    List.filter
      (fun (_, v) -> v > 0)
      [ "supervise_fuel_exhausted", fuel_exhausted s;
        "supervise_quarantined", List.length s.state.quarantine;
        "supervise_resumed_shards", s.state.resumed_shards;
        "supervise_retries", s.state.retries ]
  in
  if extra = [] then s.state.snapshot
  else
    Telemetry.Snapshot.merge s.state.snapshot
      { Telemetry.Snapshot.empty with counters = extra }

(* The blind baseline at the same program budget: the bitmap a plain
   generation-only grid reaches.  Each program is the exact blind
   program at its index, so this is the control arm of the
   guided-beats-blind inequality. *)
let blind_coverage ?pool ?(tool_names = []) ?backend ~seed ~n ()
  : Coverage.t =
  Harness.Pool.maybe_map_results pool
    (fun i ->
       (run_one ~tool_names ~fault_specs:[] ~campaign_seed:seed ?backend
          Gen_phase i).cov)
    (List.init n Fun.id)
  |> List.fold_left
    (fun acc r -> match r with Ok c -> Coverage.union acc c | Error _ -> acc)
    Coverage.empty

(* The BENCH_fuzzcov.json artifact (schema cecsan-bench-fuzzcov/1):
   every field derives from submission-order state -- no wall clock,
   no job count -- so the artifact is byte-identical at any -j and
   across kill-and-resume. *)
let fuzzcov_json ~blind (s : summary) : string =
  let st = s.state in
  let mismatches =
    List.length
      (List.filter (fun (r : Checkpoint.row) -> r.failures <> []) st.rows)
  in
  let open Json in
  let phase programs admitted =
    Obj [ ("programs", Int programs); ("admitted", Int admitted) ]
  in
  to_string Compact
    (Obj
       [ ("schema", Str "cecsan-bench-fuzzcov/1");
         ("seed", Str (sp "0x%x" st.campaign_seed));
         ("n", Int st.n);
         ("mutate_only", Bool (st.schedule = Mutate_only));
         ("guided",
          Obj
            [ ("bits", Int (Coverage.cardinal st.coverage));
              ("sites", Int (Coverage.sites st.coverage));
              ("corpus", Int (Corpus.size st.corpus));
              ("mismatches", Int mismatches);
              ("phases",
               Obj
                 [ ("gen", phase st.gen_programs st.gen_admitted);
                   ("mutate", phase st.mut_programs st.mut_admitted) ]) ]);
         ("blind",
          Obj
            [ ("bits", Int (Coverage.cardinal blind));
              ("sites", Int (Coverage.sites blind)) ]);
         ("rows",
          List
            (List.map
               (fun (c : Checkpoint.cov_row) ->
                  Obj
                    [ ("shard", Int c.cr_shard);
                      ("phase", Str c.cr_phase);
                      ("bits", Int c.cr_bits);
                      ("sites", Int c.cr_sites);
                      ("corpus", Int c.cr_corpus) ])
               st.cov_rows)) ])

(* --- final ledgers -------------------------------------------------------- *)

(* The two files the durability contract is judged on: every line
   derives only from the checkpointed state (rows and quarantine
   entries), so an interrupted-and-resumed campaign reproduces them
   byte for byte. *)
let mismatch_ledger_lines (s : summary) =
  List.filter_map
    (fun (r : Checkpoint.row) ->
       if r.failures = [] then None else Some (Checkpoint.row_fields r))
    s.state.rows

let quarantine_ledger_lines (s : summary) =
  List.map Harness.Supervise.entry_to_line s.state.quarantine

let write_ledgers ~dir (s : summary) : string * string =
  Harness.Jsonio.mkdir dir;
  let write name lines =
    let path = Filename.concat dir name in
    Harness.Jsonio.write_lines ~path lines;
    path
  in
  ( write "mismatch.ledger" (mismatch_ledger_lines s),
    write "quarantine.ledger" (quarantine_ledger_lines s) )

(* --- rendering ----------------------------------------------------------- *)

let class_histogram rows =
  List.fold_left
    (fun acc (r : Checkpoint.row) ->
       match r.plan with
       | None -> acc
       | Some p ->
         let k = Gen.class_name p.Gen.cls in
         (k, 1 + Option.value (List.assoc_opt k acc) ~default:0)
         :: List.remove_assoc k acc)
    [] rows
  |> List.sort compare

(* The header carries everything needed to replay the campaign from the
   log alone: seed, size, job count, tool lineup, fault specs. *)
let render fmt ~jobs (s : summary) =
  let st = s.state in
  let line label v = Format.fprintf fmt "  %-18s: %d@." label v in
  Format.fprintf fmt
    "Fuzz campaign: seed=0x%x n=%d jobs=%d tools=cecsan%s%s@."
    st.campaign_seed st.n jobs
    (String.concat "" (List.map (( ^ ) ",") st.tool_names))
    (match st.faults with
     | [] -> ""
     | fs -> " faults=" ^ String.concat "," fs);
  let clean =
    List.length
      (List.filter (fun (r : Checkpoint.row) -> r.plan = None) st.rows)
  in
  Format.fprintf fmt "  programs: %d clean + %d bug-injected@." clean
    (List.length st.rows - clean);
  List.iter
    (fun (k, v) -> Format.fprintf fmt "    planted %-16s %4d@." k v)
    (class_histogram st.rows);
  List.iter
    (fun (label, prefix) -> line label (count_failures s prefix))
    verdict_classes;
  line "quarantined" (List.length st.quarantine);
  line "retries" st.retries;
  if fuel_exhausted s > 0 then line "fuel-exhausted" (fuel_exhausted s);
  if st.resumed_shards > 0 then line "resumed shards" st.resumed_shards;
  if st.schedule <> Blind then begin
    Format.fprintf fmt "  coverage          : %d bits over %d sites@."
      (Coverage.cardinal st.coverage)
      (Coverage.sites st.coverage);
    Format.fprintf fmt
      "  corpus            : %d entries (%d gen + %d mutate admissions)@."
      (Corpus.size st.corpus) st.gen_admitted st.mut_admitted;
    Format.fprintf fmt
      "  phases            : %d generation + %d mutation programs@."
      st.gen_programs st.mut_programs
  end;
  if st.quarantine <> [] then begin
    Format.fprintf fmt "@.  QUARANTINE:@.";
    Harness.Supervise.render fmt st.quarantine
  end;
  List.iter
    (fun sh ->
       Format.fprintf fmt
         "@.  FAILURE (program %d, seed 0x%x, shrunk to %d lines):@."
         sh.s_row.index sh.s_row.seed sh.s_lines;
       List.iter
         (fun f ->
            Format.fprintf fmt "    %s: %s@." (Oracle.failure_name f)
              (Oracle.failure_detail f))
         sh.s_failures;
       Format.fprintf fmt "    tape: %s@." (Tape.to_string sh.s_tape);
       List.iter
         (fun l -> Format.fprintf fmt "    | %s@." l)
         (String.split_on_char '\n' sh.s_src))
    s.shrunk;
  Format.fprintf fmt "@.  RESULT: %s@."
    (if passed s then "PASS" else "FAIL")

(* --- resilience degradation table ----------------------------------------- *)

type resilience_row = {
  rs_scenario : string;
  rs_n : int;
  rs_completed : int;      (* programs that produced a verdict *)
  rs_quarantined : int;
  rs_retries : int;
  rs_fuel : int;
  rs_pass : bool;          (* oracle verdicts clean on the survivors *)
}

(* The supervised counterpart of the Harness.Faults grid: each scenario
   runs the same seeded campaign under one injected harness-fault
   class, and the table shows how much of the grid survives. *)
let resilience ?pool ?(n = 240) ?backend ~seed () : resilience_row list =
  (* Calibrated against the generator: most programs allocate only a
     handful of times and compile in well under 2000 fuel steps, so
     crash:3 / fuel:600 kill a slice of the grid, crash:1 / fuel:400
     kill most of it, and fuel:2000 is a watchdog that never fires. *)
  let scenarios =
    [ "none", [];
      "crash:3", [ Vm.Fault.Crash 3 ];
      "crash:1", [ Vm.Fault.Crash 1 ];
      "fuel:2000", [ Vm.Fault.Fuel 2_000 ];
      "fuel:400", [ Vm.Fault.Fuel 400 ] ]
  in
  List.map
    (fun (name, faults) ->
       let s = run ?pool ~faults ~max_shrink:0 ?backend ~seed ~n () in
       { rs_scenario = name;
         rs_n = n;
         rs_completed = List.length s.state.rows;
         rs_quarantined = List.length s.state.quarantine;
         rs_retries = s.state.retries;
         rs_fuel = fuel_exhausted s;
         rs_pass = passed s })
    scenarios

let render_resilience fmt (rows : resilience_row list) =
  Format.fprintf fmt "Resilience: supervised campaign under injected harness faults@.";
  Format.fprintf fmt "  %-14s %9s %10s %12s %8s %6s %s@." "scenario"
    "programs" "completed" "quarantined" "retries" "fuel" "verdict";
  List.iter
    (fun r ->
       Format.fprintf fmt "  %-14s %9d %10d %12d %8d %6d %s@."
         r.rs_scenario r.rs_n r.rs_completed r.rs_quarantined r.rs_retries
         r.rs_fuel
         (if r.rs_pass then "PASS" else "FAIL"))
    rows

let resilience_json (rows : resilience_row list) : string =
  Json.(
    to_string Compact
      (Obj
         [ ("rows",
            List
              (List.map
                 (fun r ->
                    Obj
                      [ ("scenario", Str r.rs_scenario);
                        ("n", Int r.rs_n);
                        ("completed", Int r.rs_completed);
                        ("quarantined", Int r.rs_quarantined);
                        ("retries", Int r.rs_retries);
                        ("fuel_exhausted", Int r.rs_fuel);
                        ("pass", Bool r.rs_pass) ])
                 rows)) ]))

(* --- repro / corpus files ------------------------------------------------ *)

let repro_contents ~seed ~inject ~(failures : Oracle.failure list)
    ~(tape : int array) (src : string) =
  String.concat "\n"
    ([ "/* cecsan-fuzz repro";
       sp "   seed: 0x%x" seed;
       sp "   inject: %b" inject;
     ]
     @ List.map
       (fun f -> sp "   failure: %s (%s)" (Oracle.failure_name f)
           (Oracle.failure_detail f))
       failures
     @ [ sp "   tape: %s" (Tape.to_string tape); "*/"; src; "" ])

let corpus_contents ~cls ~seed ~(tape : int array) (src : string) =
  String.concat "\n"
    [ "/* cecsan-fuzz corpus entry";
      sp "   class: %s" (Gen.class_name cls);
      sp "   seed: 0x%x" seed;
      sp "   tape: %s" (Tape.to_string tape);
      "   expect: detected by CECSan under Halt and Recover"; "*/"; src;
      "" ]

(* Writes shrunk failure repros; returns the paths. *)
let write_repros ~dir (s : summary) : string list =
  if s.shrunk = [] then []
  else begin
    Harness.Jsonio.mkdir dir;
    List.map
      (fun sh ->
         let path =
           Filename.concat dir
             (sp "repro_%04d_%s.mc" sh.s_row.index
                (match sh.s_failures with
                 | f :: _ ->
                   String.map
                     (function ':' -> '_' | c -> c)
                     (Oracle.failure_name f)
                 | [] -> "unknown"))
         in
         Harness.Jsonio.write ~path
           (repro_contents ~seed:sh.s_row.seed
              ~inject:(inject_of_index sh.s_row.index)
              ~failures:sh.s_failures ~tape:sh.s_tape sh.s_src);
         path)
      s.shrunk
  end

(* Whether the tape, replayed with a planted bug, plants a plan [same]
   accepts and CECSan(-O2) detects it with a kind matching its class.
   Corpus admission asks for the same class; corpus shrinking pins the
   whole plan (class AND far/write/granule16), so each entry stays a
   faithful witness of its plan-shape marker. *)
let detect_same_plan ?backend same tape =
  let p = Gen.generate ~inject:true (Tape.replay tape) in
  match p.Gen.plan with
  | Some pl when same pl ->
    (match
       Oracle.run_tool (Cecsan.sanitizer ()) ?backend ~optimize:true
         p.Gen.src
     with
     | tr ->
       tr.Oracle.detected
       && (match tr.Oracle.first_kind with
           | Some k -> Oracle.kind_ok pl.Gen.cls k
           | None -> false)
     | exception Oracle.Compile_error _ -> false)
  | _ -> false

(* One marker bit per planted-plan shape (class x far x write x
   granule16), in reserved site space far above any real Tir site id.
   Folding it into the .mc corpus' signature makes the set-cover pass
   keep at least one witness of every detected bug shape alongside raw
   coverage breadth (the AFL "coverage + crash signature" dedup key). *)
let plan_marker_base = 4096

let plan_marker (pl : Gen.plan) : Coverage.t =
  let cls_index =
    let rec go i = function
      | [] -> 0
      | c :: _ when c = pl.Gen.cls -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 Gen.all_classes
  in
  let code =
    (cls_index * 8) + (Bool.to_int pl.Gen.far * 4)
    + (Bool.to_int pl.Gen.write * 2) + Bool.to_int pl.Gen.granule16
  in
  Coverage.of_keys
    [ Coverage.key ~leg:0 ~site:(plan_marker_base + code)
        Coverage.Instrumented ]

(* A bug-planted tape's signature for the .mc corpus' set-cover pass:
   the bitmap over the three CECSan legs plus the plan-shape marker. *)
let corpus_coverage_of_tape ?backend tape : Coverage.t =
  let p = Gen.generate ~inject:true (Tape.replay tape) in
  let marker =
    match p.Gen.plan with
    | Some pl -> plan_marker pl
    | None -> Coverage.empty
  in
  match Oracle.evaluate_cov ~tools:[] ?backend p with
  | _, _, cov -> Coverage.union cov marker
  | exception _ -> marker

(* Seeds a regression corpus: bug-injected programs that CECSan
   detects, each shrunk to the smallest tape on which the SAME class is
   still planted and still detected (with the right kind), admitted on
   coverage novelty and finally reduced to the greedy set cover -- so
   the written corpus is a fixed point of [Corpus.minimize].
   Deterministic in [seed]; writes at most [count] entries. *)
let write_corpus ~dir ~seed ~count ?backend () : string list =
  Harness.Jsonio.mkdir dir;
  let rec collect i corp =
    if Corpus.size corp >= count || i > 10_000 then corp
    else
      let pseed = Tape.mix seed i in
      let p = Gen.generate ~inject:true (Tape.fresh ~seed:pseed) in
      match p.Gen.plan with
      | Some pl
        when detect_same_plan ?backend
               (fun pl' -> pl'.Gen.cls = pl.Gen.cls) p.Gen.tape
             && Coverage.novel
                  (corpus_coverage_of_tape ?backend p.Gen.tape)
                  ~acc:(Corpus.accumulated corp) ->
        let tape =
          Shrink.minimize ~still_fails:(detect_same_plan ?backend (( = ) pl))
            p.Gen.tape
        in
        let corp', _ =
          Corpus.admit corp ~seed:pseed ~phase:"gen" ~tape
            ~cov:(corpus_coverage_of_tape ?backend tape)
        in
        collect (i + 1) corp'
      | _ -> collect (i + 1) corp
  in
  let corp = Corpus.minimize (collect 1 Corpus.empty) in
  List.mapi
    (fun k (e : Corpus.entry) ->
       let p = Gen.generate ~inject:true (Tape.replay e.Corpus.e_tape) in
       let cls =
         match p.Gen.plan with
         | Some pl -> pl.Gen.cls
         | None -> assert false (* shrink preserved detection *)
       in
       let path =
         Filename.concat dir (sp "%02d_%s.mc" k (Gen.class_name cls))
       in
       Harness.Jsonio.write ~path
         (corpus_contents ~cls ~seed:e.Corpus.e_seed ~tape:e.Corpus.e_tape
            p.Gen.src);
       path)
    (Corpus.entries corp)

(* --- committed-corpus minimality check ------------------------------------- *)

let tape_of_corpus_file path : int array option =
  let prefix = "   tape: " in
  let k = String.length prefix in
  Option.bind (Harness.Jsonio.read_lines ~path)
    (List.find_map (fun line ->
         if String.starts_with ~prefix line then
           Tape.of_string (String.sub line k (String.length line - k))
         else None))

(* [Ok []] iff the committed .mc corpus in [dir] is already a fixed
   point of the set-cover pass: rebuilding each entry's bitmap from its
   tape header and minimizing drops nothing.  [Ok files] names the
   redundant entries. *)
let check_corpus_minimal ~dir ?backend () : (string list, string) result =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
  in
  if files = [] then Error (sp "no .mc corpus entries in %s" dir)
  else
    let rec build k files acc =
      match files with
      | [] -> Ok (List.rev acc)
      | f :: rest ->
        (match tape_of_corpus_file (Filename.concat dir f) with
         | None -> Error (sp "%s: no parseable tape header" f)
         | Some tape ->
           build (k + 1) rest
             ({ Corpus.e_id = k; e_seed = 0; e_phase = "gen";
                e_tape = tape;
                e_cov = corpus_coverage_of_tape ?backend tape }
              :: acc))
    in
    match build 0 files [] with
    | Error e -> Error e
    | Ok entries ->
      let kept =
        List.map
          (fun (e : Corpus.entry) -> e.Corpus.e_id)
          (Corpus.entries (Corpus.minimize (Corpus.of_entries entries)))
      in
      Ok (List.filteri (fun k _ -> not (List.mem k kept)) files)
