(** Coverage-keyed tape corpus: a tape is admitted iff its bitmap
    lights a (leg, site, kind) bit the accumulated bitmap lacks, so the
    accumulated bitmap always equals the union of the entries' bitmaps.
    Admission runs sequentially in submission order, which keeps the
    corpus byte-identical at any pool job count.  The on-disk format is
    line-based, written atomically via [Harness.Jsonio], and round-trips
    byte for byte. *)

type entry = {
  e_id : int;            (** admission index, stable across [minimize] *)
  e_seed : int;          (** the engine seed the tape came from *)
  e_phase : string;      (** ["gen"] or ["mutate:<op>"]; no spaces *)
  e_tape : int array;
  e_cov : Coverage.t;    (** the entry's own bitmap *)
}

type t

val empty : t

val size : t -> int

val entries : t -> entry list
(** In admission order. *)

val accumulated : t -> Coverage.t
(** Union of the entries' bitmaps. *)

val nth_tape : t -> int -> int array
(** [nth_tape c i] is entry [i]'s tape (admission order);
    [Invalid_argument] out of range. *)

val admit :
  t -> seed:int -> phase:string -> tape:int array -> cov:Coverage.t ->
  t * bool
(** [admit c ~seed ~phase ~tape ~cov] returns the possibly-grown corpus
    and whether the tape was admitted (its bitmap was novel against the
    accumulated bitmap).  Call in submission order only. *)

val favored : t -> entry list
(** AFL-style favored set: the top quarter of entries (at least one)
    ranked by distinct sites, bitmap cardinality, then recency.
    Mutation bases are drawn from here. *)

val minimize : t -> t
(** Greedy set cover: keeps the entry with the most still-uncovered
    bits (ties to the lowest admission id) until the accumulated bitmap
    is fully covered.  Deterministic, idempotent, coverage-preserving;
    entry ids survive. *)

val corpus_file : string
(** ["corpus.v1.ckpt"], written next to [campaign.v1.ckpt]. *)

val of_entries : entry list -> t
(** Rebuilds corpus state from entries in admission order (accumulated
    bitmap and next id are derived, never stored). *)

val entry_to_line : entry -> string
val entry_of_line : string -> entry option
(** One-entry (de)serialization, used by the campaign checkpoint to
    embed the corpus so checkpoint + corpus commit atomically.
    [entry_of_line] is [None] unless [entry_to_line] reproduces the
    line. *)

val to_lines : t -> string list
val of_lines : string list -> t option
(** The magic line, entry lines, then ["end"] as the last line; [None]
    otherwise, so an accepted file is [to_lines] of its result. *)

val save : dir:string -> t -> string
(** Atomic (tmp + rename); creates [dir]; returns the path written. *)

val load : dir:string -> t option
(** [None] on a missing or unparseable file — a fresh corpus is always
    a correct recovery. *)

val render : Format.formatter -> t -> unit
