(** The generator's decision tape: a seeded splitmix PRNG whose every
    draw is recorded, and which can replay an arbitrary int array (with
    0-defaults past the end).  Any int array is a valid tape, which is
    what makes delta debugging over it ([Shrink]) sound. *)

type t

val mix : int -> int -> int
(** [mix seed i] splits a campaign seed into the [i]-th independent
    per-program seed. *)

val fresh : seed:int -> t
(** Draws come from the PRNG; all are recorded. *)

val replay : int array -> t
(** Draws come from the array ([mod bound]); 0 once it runs out. *)

val draw : t -> int -> int
(** [draw t bound] is uniform-ish in [0, bound). *)

val bool : t -> bool

val rand : t -> int
(** Full-range non-negative draw ([draw t max_int]); the deterministic
    PRNG surface the mutation engine ([Mutate]) is seeded through. *)

val pick : t -> 'a list -> 'a

val recorded : t -> int array
(** Every decision made so far, in draw order; [replay (recorded t)]
    reproduces the same draw sequence. *)

val to_string : int array -> string
(** Comma-separated, for repro headers. *)

val of_string : string -> int array option
(** Inverse of {!to_string}: [None] unless printing the tape reproduces
    the string. *)
