(* Fuzz.Campaign: seeded differential campaigns over Harness.Pool,
   supervised and resumable.

   Program i of a campaign gets the independent seed
   [Tape.mix campaign_seed i] (odd indices carry a planted bug), so the
   grid is embarrassingly parallel and the verdict stream is identical
   at any job count: Pool.map_results keeps submission order, and
   shrinking of the (rare) failures happens sequentially afterwards.

   Supervision (this file's robustness layer):

   - every per-program task runs under [Harness.Supervise.run]: a task
     that dies -- injected crash, fuel exhaustion, stack overflow --
     is retried under the deterministic count-based policy and then
     QUARANTINED (one ledger entry) instead of aborting the campaign;
   - the campaign proceeds in shards of [shard_size] programs; after
     each shard the full campaign state (rows, quarantine, counters,
     merged telemetry) is written to an atomic checkpoint
     (temp-file + rename), so a SIGKILL costs at most one shard;
   - [resume:true] restores the checkpoint and continues from the
     first unfinished shard.  Everything the final ledgers derive from
     is persisted in the checkpoint, so a killed-and-resumed campaign
     produces byte-identical mismatch/quarantine ledgers to an
     uninterrupted one, at any -j.

   Checkpoint schema v1 (line-based, documented in DESIGN.md s.13):

     cecsan-campaign-checkpoint v1
     seed <hex>
     n <int>
     shard_size <int>
     tools <csv|->
     faults <csv|->
     shards_done <int>
     resumed_shards <int>
     retries <int>
     row index=<int> seed=<hex> plan=<cls:far:write:g16|-> failures=<csv|->
     ...
     quarantine task=<int> seed=<hex> attempts=<int> class=<s> phase=<s> detail=<%S>
     ...
     snapshot <Telemetry.Snapshot.to_json line>
     end *)

let sp = Printf.sprintf

type row = {
  index : int;
  seed : int;
  plan : Gen.plan option;
  failures : string list;      (* Oracle.failure_name labels *)
}

type shrunk = {
  s_row : row;
  s_failures : Oracle.failure list;
  s_src : string;
  s_tape : int array;
  s_lines : int;
}

(* One coverage-over-time sample, recorded after each guided shard. *)
type cov_row = {
  cr_shard : int;
  cr_phase : string;           (* "gen" or "mutate" *)
  cr_bits : int;               (* accumulated bitmap cardinality *)
  cr_sites : int;              (* distinct site ids in the bitmap *)
  cr_corpus : int;             (* corpus size after the shard *)
}

type summary = {
  campaign_seed : int;
  n : int;
  tool_names : string list;
  fault_specs : Vm.Fault.spec list;
  rows : row list;
  shrunk : shrunk list;
  quarantine : Harness.Supervise.entry list;  (* submission order *)
  retries : int;          (* re-attempts made across all tasks *)
  fuel_exhausted : int;   (* quarantined with class "fuel" *)
  resumed_shards : int;   (* shards restored from a checkpoint *)
  (* CECSan(-O2) telemetry over the whole grid, merged in submission
     order: identical at any job count *)
  snapshot : Telemetry.Snapshot.t;
  (* guided-mode state: empty/zero for a blind campaign *)
  guided : bool;
  mutate_only : bool;
  coverage : Coverage.t;   (* accumulated bitmap, submission order *)
  corpus : Corpus.t;
  cov_rows : cov_row list; (* one per shard, oldest first *)
  gen_programs : int;      (* programs run in generation shards *)
  mut_programs : int;      (* programs run in mutation shards *)
  gen_admitted : int;      (* corpus admissions from generation *)
  mut_admitted : int;      (* corpus admissions from mutation *)
  clean : int;
  buggy : int;
  false_positives : int;
  false_negatives : int;
  divergences : int;
  opt_unsound : int;
  misclassified : int;
  gen_invalid : int;
}

let inject_of_index i = i land 1 = 1

let tools_of_names names = List.filter_map Oracle.baseline_of_name names

(* The pipeline-fuel budget carried by a [Fuel n] fault spec, if any. *)
let fuel_budget_of_specs specs =
  List.fold_left
    (fun acc s -> match s with Vm.Fault.Fuel b -> Some b | _ -> acc)
    None specs

(* One self-contained job: everything derived from (campaign_seed, i).
   With fault specs given, program i gets its own injector seeded from
   its derived seed, threaded into every oracle run; a [Fuel b] spec
   additionally puts the generator under a fresh [b]-step budget (the
   compile/verify phases get theirs inside Driver.run, bridged from the
   injector). *)
let run_one ~tool_names ~fault_specs ~campaign_seed ?backend i
  : row * Telemetry.Snapshot.t =
  let tools = tools_of_names tool_names in
  let seed = Tape.mix campaign_seed i in
  let fault =
    match fault_specs with
    | [] -> None
    | specs -> Some (Vm.Fault.of_specs ~seed specs)
  in
  let gen_fuel =
    Option.map
      (fun b -> Tir.Fuel.make ~phase:"gen" ~budget:b)
      (fuel_budget_of_specs fault_specs)
  in
  let p =
    Gen.generate ~inject:(inject_of_index i) ?fuel:gen_fuel
      (Tape.fresh ~seed)
  in
  let fs, snap = Oracle.evaluate_full ~tools ?fault ?backend p in
  ( { index = i; seed; plan = p.Gen.plan;
      failures = List.map Oracle.failure_name fs },
    snap )

(* --- guided jobs ----------------------------------------------------------- *)

type phase = Gen_phase | Mut_phase

let phase_name = function Gen_phase -> "gen" | Mut_phase -> "mutate"

(* One guided job's result: the blind row plus everything the
   sequential admission loop needs. *)
type gres = {
  g_row : row;
  g_snap : Telemetry.Snapshot.t;
  g_cov : Coverage.t;
  g_phase : string;            (* "gen" or "mutate:<op>" *)
  g_tape : int array;          (* normalized (recorded) decision tape *)
}

(* The guided counterpart of [run_one].  A generation-phase job is
   byte-identical to the blind job at the same index (same derived
   seed, same parity-planted bug); a mutation-phase job derives its
   whole schedule -- base pick, partner pick, operator, operator
   randomness -- from the same per-program seed over the corpus
   snapshot taken at shard start, so it is a pure function of
   (campaign_seed, i, corpus-at-shard-start) and independent of pool
   interleaving.  [Mut_phase] requires a nonempty corpus. *)
let run_one_guided ~tool_names ~fault_specs ~campaign_seed ?backend
    ~phase ~corpus i : gres =
  let tools = tools_of_names tool_names in
  let seed = Tape.mix campaign_seed i in
  let fault =
    match fault_specs with
    | [] -> None
    | specs -> Some (Vm.Fault.of_specs ~seed specs)
  in
  let gen_fuel =
    Option.map
      (fun b -> Tir.Fuel.make ~phase:"gen" ~budget:b)
      (fuel_budget_of_specs fault_specs)
  in
  let inject = inject_of_index i in
  let g_phase, p =
    match phase with
    | Gen_phase ->
      "gen", Gen.generate ~inject ?fuel:gen_fuel (Tape.fresh ~seed)
    | Mut_phase ->
      let size = Corpus.size corpus in
      if size = 0 then invalid_arg "Campaign: mutation over empty corpus";
      let rng = Tape.fresh ~seed in
      let favored = Corpus.favored corpus in
      let base =
        (List.nth favored (Tape.draw rng (List.length favored))).Corpus.e_tape
      in
      let partner = Corpus.nth_tape corpus (Tape.draw rng size) in
      let op, tape = Mutate.mutate ~rng ~partner base in
      ( sp "mutate:%s" (Mutate.op_name op),
        Gen.generate ~inject ?fuel:gen_fuel (Tape.replay tape) )
  in
  (* the snapshot merged into the campaign stays the CECSan(-O2) one,
     exactly as in blind mode *)
  let fs, snap, cov = Oracle.evaluate_cov ~tools ?fault ?backend p in
  { g_row = { index = i; seed; plan = p.Gen.plan;
              failures = List.map Oracle.failure_name fs };
    g_snap = snap; g_cov = cov; g_phase; g_tape = p.Gen.tape }

(* Shrinks a failing case: the minimized tape must regenerate a program
   that still exhibits every one of the original failure labels.  The
   row's fault injector (if any) threads into every candidate
   evaluation, and [fuel] bounds the whole minimization. *)
let shrink_failure ~tool_names ?fault ?fuel ?backend ~inject
    (p : Gen.program) (failures : Oracle.failure list) : shrunk option =
  let tools = tools_of_names tool_names in
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

let count_kind rows pred =
  List.fold_left
    (fun acc r -> acc + List.length (List.filter pred r)) 0
    (List.map (fun r -> r.failures) rows)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* --- checkpoint serialization (schema v1) -------------------------------- *)

let checkpoint_file = "campaign.v1.ckpt"
let checkpoint_magic = "cecsan-campaign-checkpoint v1"

(* Mid-campaign state: everything the final summary and ledgers derive
   from.  Rows and quarantine entries are kept in submission order. *)
type ckpt = {
  ck_seed : int;
  ck_n : int;
  ck_shard_size : int;
  ck_tools : string list;
  ck_faults : string list;           (* Fault.spec_to_string forms *)
  ck_shards_done : int;
  ck_resumed_shards : int;
  ck_retries : int;
  ck_rows : row list;
  ck_quarantine : Harness.Supervise.entry list;
  ck_snapshot : Telemetry.Snapshot.t;
  (* guided extension (schema-v1-compatible: the extra lines appear
     only in guided checkpoints, and a blind checkpoint's bytes are
     unchanged) *)
  ck_guided : bool;
  ck_mutate_only : bool;
  ck_coverage : Coverage.t;
  ck_corpus : Corpus.t;  (* embedded: checkpoint + corpus commit atomically *)
  ck_cov_rows : cov_row list;
  ck_gen_programs : int;
  ck_mut_programs : int;
  ck_gen_admitted : int;
  ck_mut_admitted : int;
}

let csv_or_dash = function [] -> "-" | xs -> String.concat "," xs
let csv_of_dash = function "-" -> [] | s -> String.split_on_char ',' s

let plan_to_field = function
  | None -> "-"
  | Some (p : Gen.plan) ->
    sp "%s:%d:%d:%d" (Gen.class_name p.Gen.cls)
      (Bool.to_int p.Gen.far) (Bool.to_int p.Gen.write)
      (Bool.to_int p.Gen.granule16)

let plan_of_field = function
  | "-" -> Ok None
  | s ->
    (match String.split_on_char ':' s with
     | [ cls; far; write; g16 ] ->
       (match Gen.class_of_name cls, far, write, g16 with
        | Some cls, ("0" | "1"), ("0" | "1"), ("0" | "1") ->
          Ok (Some { Gen.cls; far = String.equal far "1";
                     write = String.equal write "1";
                     granule16 = String.equal g16 "1" })
        | _ -> Error (sp "bad plan field %S" s))
     | _ -> Error (sp "bad plan field %S" s))

let row_to_line r =
  sp "row index=%d seed=%x plan=%s failures=%s" r.index r.seed
    (plan_to_field r.plan) (csv_or_dash r.failures)

let cov_row_to_line c =
  sp "covrow shard=%d phase=%s bits=%d sites=%d corpus=%d" c.cr_shard
    c.cr_phase c.cr_bits c.cr_sites c.cr_corpus

let cov_row_of_line line : cov_row option =
  match
    Scanf.sscanf line "covrow shard=%d phase=%s bits=%d sites=%d corpus=%d"
      (fun s p b st c -> (s, p, b, st, c))
  with
  | cr_shard, cr_phase, cr_bits, cr_sites, cr_corpus ->
    Some { cr_shard; cr_phase; cr_bits; cr_sites; cr_corpus }
  | exception _ -> None

let row_of_line line : row option =
  match
    Scanf.sscanf line "row index=%d seed=%x plan=%s failures=%s"
      (fun index seed plan failures -> (index, seed, plan, failures))
  with
  | index, seed, plan, failures ->
    (match plan_of_field plan with
     | Ok plan -> Some { index; seed; plan; failures = csv_of_dash failures }
     | Error _ -> None)
  | exception _ -> None

let write_checkpoint ~dir (ck : ckpt) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir checkpoint_file in
  (* Jsonio's tmp+rename guarantees a reader never observes a torn
     checkpoint *)
  Harness.Jsonio.with_file ~path (fun oc ->
      let line fmt =
        Printf.ksprintf (fun s -> output_string oc (s ^ "\n")) fmt
      in
      line "%s" checkpoint_magic;
      line "seed %x" ck.ck_seed;
      line "n %d" ck.ck_n;
      line "shard_size %d" ck.ck_shard_size;
      line "tools %s" (csv_or_dash ck.ck_tools);
      line "faults %s" (csv_or_dash ck.ck_faults);
      line "shards_done %d" ck.ck_shards_done;
      line "resumed_shards %d" ck.ck_resumed_shards;
      line "retries %d" ck.ck_retries;
      if ck.ck_guided then begin
        line "guided mutate_only=%d gen=%d mut=%d gen_adm=%d mut_adm=%d"
          (Bool.to_int ck.ck_mutate_only) ck.ck_gen_programs
          ck.ck_mut_programs ck.ck_gen_admitted ck.ck_mut_admitted;
        line "bitmap %s" (Coverage.to_string ck.ck_coverage);
        List.iter (fun c -> line "%s" (cov_row_to_line c)) ck.ck_cov_rows;
        List.iter
          (fun e -> line "corpus %s" (Corpus.entry_to_line e))
          (Corpus.entries ck.ck_corpus)
      end;
      List.iter (fun r -> line "%s" (row_to_line r)) ck.ck_rows;
      List.iter
        (fun e -> line "quarantine %s" (Harness.Supervise.entry_to_line e))
        ck.ck_quarantine;
      line "snapshot %s" (Telemetry.Snapshot.to_json ck.ck_snapshot);
      line "end")

(* [None] on a missing or unparseable file (a fresh start is always a
   correct recovery); the caller validates configuration agreement. *)
let read_checkpoint ~dir : ckpt option =
  let path = Filename.concat dir checkpoint_file in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do lines := input_line ic :: !lines done
     with End_of_file -> ());
    close_in ic;
    let lines = List.rev !lines in
    let exception Bad in
    let scan1 line fmt =
      match Scanf.sscanf line fmt (fun v -> v) with
      | v -> v
      | exception _ -> raise Bad
    in
    match lines with
    | magic :: seed_l :: n_l :: ss_l :: tools_l :: faults_l :: sd_l
      :: rs_l :: rt_l :: rest ->
      (try
         if not (String.equal magic checkpoint_magic) then raise Bad;
         let ck_seed = scan1 seed_l "seed %x" in
         let ck_n = scan1 n_l "n %d" in
         let ck_shard_size = scan1 ss_l "shard_size %d" in
         let ck_tools = csv_of_dash (scan1 tools_l "tools %s") in
         let ck_faults = csv_of_dash (scan1 faults_l "faults %s") in
         let ck_shards_done = scan1 sd_l "shards_done %d" in
         let ck_resumed_shards = scan1 rs_l "resumed_shards %d" in
         let ck_retries = scan1 rt_l "retries %d" in
         let rows = ref [] and quarantine = ref [] in
         let snapshot = ref None in
         let guided = ref None in
         let bitmap = ref Coverage.empty in
         let cov_rows = ref [] in
         let corpus_entries = ref [] in
         let finished = ref false in
         List.iter
           (fun line ->
              if !finished then ()
              else if String.equal line "end" then finished := true
              else if has_prefix ~prefix:"row " line then
                match row_of_line line with
                | Some r -> rows := r :: !rows
                | None -> raise Bad
              else if has_prefix ~prefix:"guided " line then
                (match
                   Scanf.sscanf line
                     "guided mutate_only=%d gen=%d mut=%d gen_adm=%d \
                      mut_adm=%d"
                     (fun m g mu ga ma -> (m, g, mu, ga, ma))
                 with
                 | m, g, mu, ga, ma -> guided := Some (m = 1, g, mu, ga, ma)
                 | exception _ -> raise Bad)
              else if has_prefix ~prefix:"bitmap " line then
                (match
                   Coverage.of_string
                     (String.sub line 7 (String.length line - 7))
                 with
                 | Some c -> bitmap := c
                 | None -> raise Bad)
              else if has_prefix ~prefix:"covrow " line then
                (match cov_row_of_line line with
                 | Some c -> cov_rows := c :: !cov_rows
                 | None -> raise Bad)
              else if has_prefix ~prefix:"corpus " line then
                (match
                   Corpus.entry_of_line
                     (String.sub line 7 (String.length line - 7))
                 with
                 | Some e -> corpus_entries := e :: !corpus_entries
                 | None -> raise Bad)
              else if has_prefix ~prefix:"quarantine " line then
                match
                  Harness.Supervise.entry_of_line
                    (String.sub line 11 (String.length line - 11))
                with
                | Some e -> quarantine := e :: !quarantine
                | None -> raise Bad
              else if has_prefix ~prefix:"snapshot " line then
                match
                  Telemetry.Snapshot.of_json
                    (String.sub line 9 (String.length line - 9))
                with
                | Some s -> snapshot := Some s
                | None -> raise Bad
              else raise Bad)
           rest;
         if not !finished then raise Bad;
         match !snapshot with
         | None -> None
         | Some ck_snapshot ->
           let ck_guided, ck_mutate_only, ck_gen_programs,
               ck_mut_programs, ck_gen_admitted, ck_mut_admitted =
             match !guided with
             | None -> (false, false, 0, 0, 0, 0)
             | Some (m, g, mu, ga, ma) -> (true, m, g, mu, ga, ma)
           in
           Some
             { ck_seed; ck_n; ck_shard_size; ck_tools; ck_faults;
               ck_shards_done; ck_resumed_shards; ck_retries;
               ck_rows = List.rev !rows;
               ck_quarantine = List.rev !quarantine; ck_snapshot;
               ck_guided; ck_mutate_only; ck_coverage = !bitmap;
               ck_corpus = Corpus.of_entries (List.rev !corpus_entries);
               ck_cov_rows = List.rev !cov_rows;
               ck_gen_programs; ck_mut_programs; ck_gen_admitted;
               ck_mut_admitted }
       with Bad -> None)
    | _ -> None
  end

(* --- the campaign driver -------------------------------------------------- *)

let fuel_exhausted_count quarantine =
  List.length
    (List.filter
       (fun e -> String.equal e.Harness.Supervise.q_class "fuel")
       quarantine)

let run ?pool ?(tool_names = []) ?(max_shrink = 5) ?(faults = [])
    ?(policy = Harness.Supervise.default_policy) ?checkpoint
    ?(resume = false) ?(shard_size = 256) ?stop_after_shards ?backend
    ?(guided = false) ?(mutate_only = false) ~seed ~n () : summary =
  let shard_size = max 1 shard_size in
  let mutate_only = guided && mutate_only in
  let fault_strings = List.map Vm.Fault.spec_to_string faults in
  (* restore: a missing/corrupt checkpoint is a fresh start; a
     checkpoint for a DIFFERENT campaign is a caller error.  The guided
     corpus is embedded in the checkpoint, so corpus and campaign state
     restore from one atomic file. *)
  let restored =
    if not resume then None
    else
      match checkpoint with
      | None -> invalid_arg "Campaign.run: resume requires a checkpoint dir"
      | Some dir ->
        (match read_checkpoint ~dir with
         | None -> None
         | Some ck ->
           if
             ck.ck_seed <> seed || ck.ck_n <> n
             || ck.ck_shard_size <> shard_size
             || ck.ck_tools <> tool_names
             || ck.ck_faults <> fault_strings
             || ck.ck_guided <> guided
             || ck.ck_mutate_only <> mutate_only
           then
             invalid_arg
               (sp
                  "Campaign.run: checkpoint in %s is for a different \
                   campaign (seed/n/shard_size/tools/faults/guided \
                   mismatch)"
                  dir)
           else Some ck)
  in
  let rows_rev = ref [] in
  let quarantine_rev = ref [] in
  let snapshot = ref Telemetry.Snapshot.empty in
  let retries = ref 0 in
  let shards_done = ref 0 in
  let resumed_shards = ref 0 in
  let coverage = ref Coverage.empty in
  let corpus = ref Corpus.empty in
  let cov_rows_rev = ref [] in
  let gen_programs = ref 0 and mut_programs = ref 0 in
  let gen_admitted = ref 0 and mut_admitted = ref 0 in
  (match restored with
   | None -> ()
   | Some ck ->
     rows_rev := List.rev ck.ck_rows;
     quarantine_rev := List.rev ck.ck_quarantine;
     snapshot := ck.ck_snapshot;
     retries := ck.ck_retries;
     shards_done := ck.ck_shards_done;
     coverage := ck.ck_coverage;
     corpus := ck.ck_corpus;
     cov_rows_rev := List.rev ck.ck_cov_rows;
     gen_programs := ck.ck_gen_programs;
     mut_programs := ck.ck_mut_programs;
     gen_admitted := ck.ck_gen_admitted;
     mut_admitted := ck.ck_mut_admitted;
     (* every shard we did NOT recompute this process counts as resumed *)
     resumed_shards := ck.ck_resumed_shards + ck.ck_shards_done);
  let total_shards = (n + shard_size - 1) / shard_size in
  let save () =
    match checkpoint with
    | None -> ()
    | Some dir ->
      (* the standalone corpus file is a derived artifact (for CI cmp
         and external consumers); resume reads the embedded copy, so a
         crash between the two atomic writes cannot desynchronize the
         restored state *)
      if guided then ignore (Corpus.save ~dir !corpus);
      write_checkpoint ~dir
        { ck_seed = seed; ck_n = n; ck_shard_size = shard_size;
          ck_tools = tool_names; ck_faults = fault_strings;
          ck_shards_done = !shards_done;
          ck_resumed_shards = !resumed_shards; ck_retries = !retries;
          ck_rows = List.rev !rows_rev;
          ck_quarantine = List.rev !quarantine_rev;
          ck_snapshot = !snapshot;
          ck_guided = guided; ck_mutate_only = mutate_only;
          ck_coverage = !coverage; ck_corpus = !corpus;
          ck_cov_rows = List.rev !cov_rows_rev;
          ck_gen_programs = !gen_programs;
          ck_mut_programs = !mut_programs;
          ck_gen_admitted = !gen_admitted;
          ck_mut_admitted = !mut_admitted }
  in
  let process_shard sidx =
    let lo = sidx * shard_size in
    let hi = min n (lo + shard_size) in
    let indices = List.init (hi - lo) (fun k -> lo + k) in
    let outcomes =
      Harness.Pool.maybe_map_results pool
        (fun i ->
           Harness.Supervise.run ~policy ~task:i ~seed:(Tape.mix seed i)
             (fun ~attempt:_ ->
                run_one ~tool_names ~fault_specs:faults ~campaign_seed:seed
                  ?backend i))
        indices
    in
    List.iter2
      (fun i outcome ->
         match outcome with
         | Ok { Harness.Supervise.result = Ok (row, snap); retries = r } ->
           rows_rev := row :: !rows_rev;
           snapshot := Telemetry.Snapshot.merge !snapshot snap;
           retries := !retries + r
         | Ok { result = Error entry; retries = r } ->
           quarantine_rev := entry :: !quarantine_rev;
           retries := !retries + r
         | Error e ->
           (* escaped the supervisor itself (should not happen); treat
              it as a zero-retry quarantine rather than dying *)
           let cls, phase = Harness.Supervise.classify e in
           quarantine_rev :=
             { Harness.Supervise.q_task = i; q_seed = Tape.mix seed i;
               q_class = cls; q_phase = phase; q_attempts = 1;
               q_detail = Printexc.to_string e }
             :: !quarantine_rev)
      indices outcomes;
    incr shards_done;
    save ()
  in
  (* Guided shards alternate generation (even) and mutation (odd);
     mutation needs a nonempty corpus to draw from, so early shards
     fall back to generation, and [mutate_only] makes every shard after
     the first admission a mutation shard.  The corpus snapshot is
     taken once at shard start, so every job in the shard is a pure
     function of (seed, index, snapshot) regardless of -j; admission
     and accounting happen sequentially in submission order. *)
  let process_shard_guided sidx =
    let lo = sidx * shard_size in
    let hi = min n (lo + shard_size) in
    let indices = List.init (hi - lo) (fun k -> lo + k) in
    let corpus_snapshot = !corpus in
    let phase =
      if Corpus.size corpus_snapshot = 0 then Gen_phase
      else if mutate_only then Mut_phase
      else if sidx land 1 = 0 then Gen_phase
      else Mut_phase
    in
    let outcomes =
      Harness.Pool.maybe_map_results pool
        (fun i ->
           Harness.Supervise.run ~policy ~task:i ~seed:(Tape.mix seed i)
             (fun ~attempt:_ ->
                run_one_guided ~tool_names ~fault_specs:faults
                  ~campaign_seed:seed ?backend ~phase
                  ~corpus:corpus_snapshot i))
        indices
    in
    List.iter2
      (fun i outcome ->
         match outcome with
         | Ok { Harness.Supervise.result = Ok g; retries = r } ->
           rows_rev := g.g_row :: !rows_rev;
           snapshot := Telemetry.Snapshot.merge !snapshot g.g_snap;
           retries := !retries + r;
           coverage := Coverage.union !coverage g.g_cov;
           (match phase with
            | Gen_phase -> incr gen_programs
            | Mut_phase -> incr mut_programs);
           let corpus', admitted =
             Corpus.admit !corpus ~seed:g.g_row.seed ~phase:g.g_phase
               ~tape:g.g_tape ~cov:g.g_cov
           in
           corpus := corpus';
           if admitted then
             (match phase with
              | Gen_phase -> incr gen_admitted
              | Mut_phase -> incr mut_admitted)
         | Ok { result = Error entry; retries = r } ->
           quarantine_rev := entry :: !quarantine_rev;
           retries := !retries + r
         | Error e ->
           let cls, phase' = Harness.Supervise.classify e in
           quarantine_rev :=
             { Harness.Supervise.q_task = i; q_seed = Tape.mix seed i;
               q_class = cls; q_phase = phase'; q_attempts = 1;
               q_detail = Printexc.to_string e }
             :: !quarantine_rev)
      indices outcomes;
    cov_rows_rev :=
      { cr_shard = sidx; cr_phase = phase_name phase;
        cr_bits = Coverage.cardinal !coverage;
        cr_sites = Coverage.sites !coverage;
        cr_corpus = Corpus.size !corpus }
      :: !cov_rows_rev;
    incr shards_done;
    save ()
  in
  let process_shard = if guided then process_shard_guided else process_shard in
  let last_shard =
    match stop_after_shards with
    | None -> total_shards
    | Some k -> min total_shards (!shards_done + max 0 k)
  in
  while !shards_done < last_shard do
    process_shard !shards_done
  done;
  let rows = List.rev !rows_rev in
  (* shrink only once every shard is in (a partial [stop_after_shards]
     run is checkpoint fodder, not a report); failing rows are
     regenerated from their seeds, so a resumed campaign shrinks
     exactly what an uninterrupted one would *)
  let shrunk =
    (* guided rows from mutation shards are not regenerable from their
       seeds alone (the tape came from the corpus), so guided
       campaigns report failures through the ledger unshrunk *)
    if guided || !shards_done < total_shards then []
    else begin
      let failing = List.filter (fun r -> r.failures <> []) rows in
      let failing =
        List.filteri (fun i _ -> i < max_shrink) failing
      in
      List.filter_map
        (fun r ->
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
             let p =
               Gen.generate ~inject (Tape.fresh ~seed:r.seed)
             in
             let fs = Oracle.evaluate ~tools:(tools_of_names tool_names)
                 ?fault ?backend p in
             match
               shrink_failure ~tool_names ?fault ?fuel ?backend ~inject p fs
             with
             | Some s ->
               Some { s with s_row = { s.s_row with index = r.index;
                                       seed = r.seed } }
             | None ->
               (* non-reproducible from its own tape: report unshrunk *)
               Some { s_row = r; s_failures = fs; s_src = p.Gen.src;
                      s_tape = p.Gen.tape;
                      s_lines = Gen.line_count p.Gen.src }
           in
           match
             Harness.Supervise.run ~policy ~task:r.index ~seed:r.seed
               (fun ~attempt:_ -> task ())
           with
           | { Harness.Supervise.result = Ok sh; retries = r' } ->
             retries := !retries + r';
             sh
           | { result = Error entry; retries = r' } ->
             retries := !retries + r';
             quarantine_rev := entry :: !quarantine_rev;
             None)
        failing
    end
  in
  (* shrink-phase quarantines were pushed onto the same ledger, after
     the campaign's own entries *)
  let quarantine = List.rev !quarantine_rev in
  let fuel_exhausted = fuel_exhausted_count quarantine in
  let snapshot =
    (* supervise counters ride the snapshot only when nonzero, so a
       fault-free campaign's telemetry is unchanged *)
    let extra =
      List.filter
        (fun (_, v) -> v > 0)
        [ "supervise_fuel_exhausted", fuel_exhausted;
          "supervise_quarantined", List.length quarantine;
          "supervise_resumed_shards", !resumed_shards;
          "supervise_retries", !retries ]
    in
    if extra = [] then !snapshot
    else
      Telemetry.Snapshot.merge !snapshot
        { Telemetry.Snapshot.empty with counters = extra }
  in
  {
    campaign_seed = seed;
    n;
    tool_names;
    fault_specs = faults;
    rows;
    shrunk;
    quarantine;
    retries = !retries;
    fuel_exhausted;
    resumed_shards = !resumed_shards;
    snapshot;
    guided;
    mutate_only;
    coverage = !coverage;
    corpus = !corpus;
    cov_rows = List.rev !cov_rows_rev;
    gen_programs = !gen_programs;
    mut_programs = !mut_programs;
    gen_admitted = !gen_admitted;
    mut_admitted = !mut_admitted;
    clean = List.length (List.filter (fun r -> r.plan = None) rows);
    buggy = List.length (List.filter (fun r -> r.plan <> None) rows);
    false_positives = count_kind rows (has_prefix ~prefix:"false-positive");
    false_negatives = count_kind rows (has_prefix ~prefix:"false-negative");
    divergences = count_kind rows (has_prefix ~prefix:"divergence");
    opt_unsound = count_kind rows (has_prefix ~prefix:"opt-unsound");
    misclassified = count_kind rows (has_prefix ~prefix:"misclassified");
    gen_invalid = count_kind rows (has_prefix ~prefix:"gen-invalid");
  }

let passed s =
  s.false_positives = 0 && s.false_negatives = 0 && s.divergences = 0
  && s.opt_unsound = 0 && s.misclassified = 0 && s.gen_invalid = 0

(* The blind baseline at the same program budget: the bitmap a plain
   generation-only grid reaches.  Each program is the exact blind
   program at its index, so this is the control arm of the
   guided-beats-blind inequality. *)
let blind_coverage ?pool ?(tool_names = []) ?backend ~seed ~n ()
  : Coverage.t =
  let covs =
    Harness.Pool.maybe_map_results pool
      (fun i ->
         (run_one_guided ~tool_names ~fault_specs:[] ~campaign_seed:seed
            ?backend ~phase:Gen_phase ~corpus:Corpus.empty i)
           .g_cov)
      (List.init n Fun.id)
  in
  List.fold_left
    (fun acc r ->
       match r with Ok c -> Coverage.union acc c | Error _ -> acc)
    Coverage.empty covs

(* The BENCH_fuzzcov.json artifact (schema cecsan-bench-fuzzcov/1):
   every field derives from submission-order state -- no wall clock,
   no job count -- so the artifact is byte-identical at any -j and
   across kill-and-resume. *)
let fuzzcov_json ~blind (s : summary) : string =
  let mismatches =
    List.length (List.filter (fun r -> r.failures <> []) s.rows)
  in
  let open Json in
  let phase programs admitted =
    Obj [ ("programs", Int programs); ("admitted", Int admitted) ]
  in
  to_string Compact
    (Obj
       [ ("schema", Str "cecsan-bench-fuzzcov/1");
         ("seed", Str (sp "0x%x" s.campaign_seed));
         ("n", Int s.n);
         ("mutate_only", Bool s.mutate_only);
         ("guided",
          Obj
            [ ("bits", Int (Coverage.cardinal s.coverage));
              ("sites", Int (Coverage.sites s.coverage));
              ("corpus", Int (Corpus.size s.corpus));
              ("mismatches", Int mismatches);
              ("phases",
               Obj
                 [ ("gen", phase s.gen_programs s.gen_admitted);
                   ("mutate", phase s.mut_programs s.mut_admitted) ]) ]);
         ("blind",
          Obj
            [ ("bits", Int (Coverage.cardinal blind));
              ("sites", Int (Coverage.sites blind)) ]);
         ("rows",
          List
            (List.map
               (fun c ->
                  Obj
                    [ ("shard", Int c.cr_shard);
                      ("phase", Str c.cr_phase);
                      ("bits", Int c.cr_bits);
                      ("sites", Int c.cr_sites);
                      ("corpus", Int c.cr_corpus) ])
               s.cov_rows)) ])

(* --- final ledgers -------------------------------------------------------- *)

(* The two files the durability contract is judged on: every line
   derives only from fields the checkpoint persists (index, seed, plan,
   failure labels, quarantine entries), so an interrupted-and-resumed
   campaign reproduces them byte for byte. *)
let mismatch_ledger_lines (s : summary) =
  List.filter_map
    (fun r ->
       if r.failures = [] then None
       else
         Some
           (sp "index=%d seed=%x plan=%s failures=%s" r.index r.seed
              (plan_to_field r.plan) (csv_or_dash r.failures)))
    s.rows

let quarantine_ledger_lines (s : summary) =
  List.map Harness.Supervise.entry_to_line s.quarantine

let write_ledgers ~dir (s : summary) : string * string =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
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
    (fun acc r ->
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
  Format.fprintf fmt
    "Fuzz campaign: seed=0x%x n=%d jobs=%d tools=cecsan%s%s@."
    s.campaign_seed s.n jobs
    (match s.tool_names with
     | [] -> ""
     | ts -> "," ^ String.concat "," ts)
    (match s.fault_specs with
     | [] -> ""
     | fs ->
       " faults=" ^ String.concat "," (List.map Vm.Fault.spec_to_string fs));
  Format.fprintf fmt "  programs: %d clean + %d bug-injected@." s.clean
    s.buggy;
  List.iter
    (fun (k, v) -> Format.fprintf fmt "    planted %-16s %4d@." k v)
    (class_histogram s.rows);
  Format.fprintf fmt "  false positives   : %d@." s.false_positives;
  Format.fprintf fmt "  false negatives   : %d@." s.false_negatives;
  Format.fprintf fmt "  divergences       : %d@." s.divergences;
  Format.fprintf fmt "  optimizer-unsound : %d@." s.opt_unsound;
  Format.fprintf fmt "  misclassified     : %d@." s.misclassified;
  Format.fprintf fmt "  generator-invalid : %d@." s.gen_invalid;
  Format.fprintf fmt "  quarantined       : %d@."
    (List.length s.quarantine);
  Format.fprintf fmt "  retries           : %d@." s.retries;
  if s.fuel_exhausted > 0 then
    Format.fprintf fmt "  fuel-exhausted    : %d@." s.fuel_exhausted;
  if s.resumed_shards > 0 then
    Format.fprintf fmt "  resumed shards    : %d@." s.resumed_shards;
  if s.guided then begin
    Format.fprintf fmt "  coverage          : %d bits over %d sites@."
      (Coverage.cardinal s.coverage)
      (Coverage.sites s.coverage);
    Format.fprintf fmt
      "  corpus            : %d entries (%d gen + %d mutate admissions)@."
      (Corpus.size s.corpus) s.gen_admitted s.mut_admitted;
    Format.fprintf fmt
      "  phases            : %d generation + %d mutation programs@."
      s.gen_programs s.mut_programs
  end;
  if s.quarantine <> [] then begin
    Format.fprintf fmt "@.  QUARANTINE:@.";
    Harness.Supervise.render fmt s.quarantine
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
         rs_completed = List.length s.rows;
         rs_quarantined = List.length s.quarantine;
         rs_retries = s.retries;
         rs_fuel = s.fuel_exhausted;
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

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let mkdir_p dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* Writes shrunk failure repros; returns the paths. *)
let write_repros ~dir (s : summary) : string list =
  if s.shrunk = [] then []
  else begin
    mkdir_p dir;
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
         write_file path
           (repro_contents ~seed:sh.s_row.seed
              ~inject:(inject_of_index sh.s_row.index)
              ~failures:sh.s_failures ~tape:sh.s_tape sh.s_src);
         path)
      s.shrunk
  end

let detect_same_class ?backend cls tape =
  let p = Gen.generate ~inject:true (Tape.replay tape) in
  match p.Gen.plan with
  | Some pl when pl.Gen.cls = cls ->
    (match
       Oracle.run_tool (Cecsan.sanitizer ()) ?backend ~optimize:true
         p.Gen.src
     with
     | tr ->
       tr.Oracle.detected
       && (match tr.Oracle.first_kind with
           | Some k -> Oracle.kind_ok cls k
           | None -> false)
     | exception Oracle.Compile_error _ -> false)
  | _ -> false

(* [detect_same_class] with the whole planted shape pinned: corpus
   shrinking preserves class AND far/write/granule16, so each entry
   stays a faithful witness of its plan-shape marker. *)
let detect_same_plan ?backend (pl0 : Gen.plan) tape =
  let p = Gen.generate ~inject:true (Tape.replay tape) in
  match p.Gen.plan with
  | Some pl when pl = pl0 ->
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
  mkdir_p dir;
  let rec collect i corp =
    if Corpus.size corp >= count || i > 10_000 then corp
    else
      let pseed = Tape.mix seed i in
      let p = Gen.generate ~inject:true (Tape.fresh ~seed:pseed) in
      match p.Gen.plan with
      | Some pl
        when detect_same_class ?backend pl.Gen.cls p.Gen.tape
             && Coverage.novel
                  (corpus_coverage_of_tape ?backend p.Gen.tape)
                  ~acc:(Corpus.accumulated corp) ->
        let tape =
          Shrink.minimize ~still_fails:(detect_same_plan ?backend pl)
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
       write_file path
         (corpus_contents ~cls ~seed:e.Corpus.e_seed ~tape:e.Corpus.e_tape
            p.Gen.src);
       path)
    (Corpus.entries corp)

(* --- committed-corpus minimality check ------------------------------------- *)

let tape_of_corpus_file path : int array option =
  let ic = open_in path in
  let found = ref None in
  (try
     while !found = None do
       let line = input_line ic in
       let prefix = "   tape: " in
       if has_prefix ~prefix line then
         found :=
           Tape.of_string
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix))
     done
   with End_of_file -> ());
  close_in ic;
  !found

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
