(** Seeded differential campaigns over [Harness.Pool]: per-program
    derived seeds, submission-order deterministic verdicts (identical at
    any job count), shrunk failure repros, and corpus seeding.

    Supervised execution (DESIGN.md section 13): every per-program task
    runs under [Harness.Supervise]; tasks that die (injected crash,
    fuel exhaustion, stack overflow) are retried deterministically and
    then quarantined instead of aborting.  The campaign proceeds in
    shards with an atomic checkpoint after each, and [resume] restores
    mid-campaign state so a killed-and-resumed run produces
    byte-identical final ledgers to an uninterrupted one. *)

type schedule = Checkpoint.schedule = Blind | Alternate | Mutate_only

type shrunk = {
  s_row : Checkpoint.row;
  s_failures : Oracle.failure list;
  s_src : string;             (** minimized repro source *)
  s_tape : int array;
  s_lines : int;
}

type summary = {
  state : Checkpoint.t;
      (** the final campaign state: the last checkpointed state plus
          the shrink phase's retries and quarantine entries (appended
          after the campaign's own) *)
  shrunk : shrunk list;
}

val run :
  ?pool:Harness.Pool.t -> ?tool_names:string list -> ?max_shrink:int ->
  ?faults:Vm.Fault.spec list -> ?policy:Harness.Supervise.policy ->
  ?checkpoint:string -> ?resume:bool -> ?shard_size:int ->
  ?stop_after_shards:int -> ?backend:Vm.Machine.backend ->
  ?schedule:schedule -> seed:int -> n:int -> unit -> summary
(** Runs the campaign in shards of [shard_size] (default 256) programs;
    shrinks up to [max_shrink] failures (default 5) sequentially after
    the last shard.

    [faults] injects one [Vm.Fault] spec set into every program's runs
    (each derives its own seeded injector); [Crash]/[Fuel] specs kill
    tasks, which the [policy] (default [Supervise.default_policy])
    retries and then quarantines.

    [checkpoint] names a directory to keep an atomic
    [Checkpoint.file] in, rewritten after every shard; [resume]
    (requires [checkpoint]) restores it and continues from the first
    unfinished shard.  A missing, unreadable or internally inconsistent
    checkpoint (see [Checkpoint.of_lines]) is a fresh start; a
    checkpoint whose seed/n/shard_size/tools/faults/schedule disagree
    with the arguments raises [Invalid_argument].

    [stop_after_shards] processes at most that many further shards and
    returns (shrink skipped) -- the deterministic stand-in for getting
    killed mid-campaign in tests.

    [backend] threads into every run of the grid; verdicts, ledgers and
    snapshots are bit-for-bit identical on either backend.

    [schedule] (default [Blind]) picks each shard's phase; every
    schedule runs the same per-program job and shard loop.  The guided
    schedules [Alternate] and [Mutate_only] add coverage feedback
    (DESIGN.md section 17): the union of the programs' [Coverage]
    bitmaps, coverage-novel tapes admitted to the corpus sequentially
    in submission order, per-phase counters and one
    [Checkpoint.cov_row] per shard.  Mutation shards draw tapes from
    the corpus snapshot at shard start and mutate them via [Mutate].  The corpus is embedded
    in the checkpoint (plus a derived standalone [corpus.v1.ckpt] in
    the same directory), so kill-and-resume reproduces corpus,
    bitmap and ledgers byte for byte at any -j.  Guided campaigns skip
    the shrink phase (mutation rows are not regenerable from their
    seeds alone). *)

val passed : summary -> bool
(** Oracle verdicts only, counted from the rows; quarantined tasks are
    reported, not failed. *)

val telemetry : summary -> Telemetry.Snapshot.t
(** CECSan(-O2) telemetry merged over the grid in submission order:
    identical at any job count.  Supervise counters
    ([supervise_retries], [supervise_quarantined],
    [supervise_fuel_exhausted], [supervise_resumed_shards]) are merged
    in only when nonzero. *)

val blind_coverage :
  ?pool:Harness.Pool.t -> ?tool_names:string list ->
  ?backend:Vm.Machine.backend -> seed:int -> n:int -> unit -> Coverage.t
(** The control arm of the guided-beats-blind inequality: the bitmap a
    plain generation-only grid of [n] programs reaches (program [i] is
    exactly the blind campaign's program [i]). *)

val fuzzcov_json : blind:Coverage.t -> summary -> string
(** The BENCH_fuzzcov.json artifact (schema [cecsan-bench-fuzzcov/1]):
    guided bits/sites/corpus/mismatches, per-phase counts,
    coverage-over-time rows, and the blind baseline -- no wall clock,
    byte-identical at any -j and across kill-and-resume. *)

val render : Format.formatter -> jobs:int -> summary -> unit
(** The header line carries seed, n, jobs, tools and fault specs, so
    any campaign is reproducible from the log alone. *)

val mismatch_ledger_lines : summary -> string list
val quarantine_ledger_lines : summary -> string list

val write_ledgers : dir:string -> summary -> string * string
(** Writes [mismatch.ledger] and [quarantine.ledger] (atomically) into
    [dir] and returns their paths.  Every line derives only from the
    checkpointed state, so interrupted-and-resumed campaigns
    reproduce both files byte for byte at any job count. *)

type resilience_row = {
  rs_scenario : string;
  rs_n : int;
  rs_completed : int;
  rs_quarantined : int;
  rs_retries : int;
  rs_fuel : int;
  rs_pass : bool;
}

val resilience : ?pool:Harness.Pool.t -> ?n:int ->
  ?backend:Vm.Machine.backend -> seed:int -> unit -> resilience_row list
(** The degradation table behind [bench --resilience]: the same seeded
    campaign (default 240 programs) under none / crash / fuel injection
    scenarios, showing how much of the grid survives supervision. *)

val render_resilience : Format.formatter -> resilience_row list -> unit

val resilience_json : resilience_row list -> string
(** Deterministic single-line JSON for the BENCH_resilience.json
    artifact. *)

val write_repros : dir:string -> summary -> string list
(** Writes each shrunk failure as a standalone [.mc] file (atomically);
    returns the paths. *)

val write_corpus :
  dir:string -> seed:int -> count:int -> ?backend:Vm.Machine.backend ->
  unit -> string list
(** Seeds a regression corpus: detected bug-injected programs, each
    shrunk while CECSan still detects the same class, admitted on
    coverage novelty, and reduced to the greedy set cover -- the
    written corpus is a fixed point of [Corpus.minimize].  Writes at
    most [count] entries. *)

val check_corpus_minimal :
  dir:string -> ?backend:Vm.Machine.backend -> unit ->
  (string list, string) result
(** [Ok []] iff the committed .mc corpus in [dir] is set-cover minimal
    (each entry's bitmap rebuilt from its tape header; minimizing drops
    nothing); [Ok files] names the redundant entries, [Error] an
    unreadable corpus. *)
