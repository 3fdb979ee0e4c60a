(** Per-program site bitmaps: the coverage-feedback signal of the guided
    fuzzer.  A bitmap is the set of (pipeline leg, stable Tir site id,
    kind) triples a program lit up, where kind is instrumented /
    executed / elided / covered, derived from the full site-row view
    ([Telemetry.Snapshot.sites_full]).  Bitmaps are canonical sets:
    union is order-independent and serialization is byte-identical for
    equal bitmaps, which is what keeps guided-campaign coverage state
    byte-for-byte reproducible at any job count. *)

type kind = Instrumented | Executed | Elided | Covered

val kind_name : kind -> string
val all_kinds : kind list

val max_legs : int
(** Packing bound on the pipeline-leg index (16). *)

val key : leg:int -> site:int -> kind -> int
(** Packs one coverage bit.  Raises [Invalid_argument] on a negative
    site or a leg outside [0, max_legs). *)

val key_site : int -> int
val key_leg : int -> int
val key_kind : int -> kind

type t

val empty : t
val cardinal : t -> int
val union : t -> t -> t
val is_subset : t -> t -> bool
val equal : t -> t -> bool

val novel : t -> acc:t -> bool
(** [novel t ~acc]: [t] carries at least one bit [acc] lacks — the
    corpus-admission test. *)

val novel_count : t -> acc:t -> int

val sites : t -> int
(** Distinct site ids carrying any bit ("sites reached"). *)

val of_keys : int list -> t
(** A bitmap from raw packed keys; used for synthetic marker bits
    (e.g. the .mc corpus' planted-plan markers) in reserved site
    space. *)

val of_rows : leg:int -> Telemetry.Snapshot.site_row list -> t
(** One pipeline leg's bitmap from its FULL site-row view: every listed
    site contributes its [Instrumented] bit, nonzero counters their
    kind bits. *)

val to_string : t -> string
(** Sorted csv of packed keys ("-" when empty); canonical, so equal
    bitmaps serialize byte-identically. *)

val of_string : string -> t option
(** Inverse of {!to_string}: [None] unless printing the bitmap
    reproduces the string (so no duplicate, unsorted or otherwise
    spelled keys). *)

val render : Format.formatter -> t -> unit
