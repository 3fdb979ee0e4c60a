(** The campaign state record and its v1 line codec (DESIGN.md section
    13).  One record is the shard loop's accumulator, the checkpoint
    payload and the source of [Campaign.summary].  [to_lines] and
    [of_lines] are pure, mirroring [Corpus.to_lines]/[of_lines]; file
    I/O goes through [Harness.Jsonio]. *)

type row = {
  index : int;
  seed : int;                 (** per-program derived seed *)
  plan : Gen.plan option;
  failures : string list;     (** [Oracle.failure_name] labels *)
}

type cov_row = {
  cr_shard : int;
  cr_phase : string;          (** ["gen"] or ["mutate"] *)
  cr_bits : int;              (** accumulated bitmap cardinality *)
  cr_sites : int;             (** distinct site ids in the bitmap *)
  cr_corpus : int;            (** corpus size after the shard *)
}
(** One coverage-over-time sample, recorded after each guided shard. *)

(** Which phase each shard runs (DESIGN.md section 17).  [Blind] runs
    generation only, without coverage feedback; [Alternate] alternates
    generation (even shards) and mutation (odd shards); [Mutate_only]
    mutates every shard once the corpus is nonempty. *)
type schedule = Blind | Alternate | Mutate_only

type t = {
  campaign_seed : int;
  n : int;
  shard_size : int;
  tool_names : string list;
  faults : string list;       (** [Vm.Fault.spec_to_string] forms *)
  schedule : schedule;
  shards_done : int;
  resumed_shards : int;       (** shards restored from a checkpoint *)
  retries : int;              (** re-attempts made across all tasks *)
  rows : row list;            (** programs that produced a verdict *)
  quarantine : Harness.Supervise.entry list;
      (** tasks that kept dying; rows and quarantine are each in
          submission order *)
  snapshot : Telemetry.Snapshot.t;
      (** CECSan(-O2) telemetry merged in submission order *)
  coverage : Coverage.t;      (** accumulated bitmap (guided only) *)
  corpus : Corpus.t;          (** embedded, so both commit atomically *)
  cov_rows : cov_row list;    (** one per guided shard, oldest first *)
  gen_programs : int;         (** programs run in generation shards *)
  mut_programs : int;         (** programs run in mutation shards *)
  gen_admitted : int;         (** corpus admissions from generation *)
  mut_admitted : int;         (** corpus admissions from mutation *)
}

val file : string
(** ["campaign.v1.ckpt"]. *)

val total_shards : t -> int
(** [n / shard_size], rounded up. *)

val row_fields : row -> string
(** [index=.. seed=.. plan=.. failures=..]: a [row] line's payload and
    the mismatch-ledger line. *)

val to_lines : t -> string list
(** A [Blind] state's lines carry no guided block. *)

val of_lines : string list -> t option
(** [None] on a malformed or internally inconsistent file, which the
    caller treats as a fresh start.  Consistent means: [0 <= shards_done
    <= total_shards], [resumed_shards] and [retries] are nonnegative,
    row indices and quarantine task ids together are exactly
    [0 .. min n (shards_done * shard_size) - 1], each once and each list
    in order, with the seeds the campaign seed derives for them; a
    guided state has [gen_programs + mut_programs] equal to the row
    count, one corpus entry per admission, a bitmap equal to the
    corpus' accumulated one and one [covrow] per shard done, and a
    blind one has no guided lines.  A consistent file is accepted only
    as {!to_lines} spells it.  Never raises. *)
