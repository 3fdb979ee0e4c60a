(** Tape mutation engine over the "any int array is a valid tape"
    contract: splice, havoc, interesting-value substitution,
    truncate/extend, and crossover between corpus tapes.  Randomness
    comes from a caller-seeded [Tape.t] PRNG, so a mutation schedule is
    a pure function of its seed — deterministic and independent of pool
    interleaving.  Every produced entry is non-negative (a negative
    entry would replay as a negative draw). *)

type op = Splice | Havoc | Interesting | Truncate | Extend | Crossover

val all_ops : op list
val op_name : op -> string

val apply : op -> rng:Tape.t -> ?partner:int array -> int array -> int array
(** Applies one operator.  [partner] (default: the tape itself) feeds
    splice and crossover. *)

val mutate : rng:Tape.t -> ?partner:int array -> int array -> op * int array
(** Draws an operator from [rng], applies it, and returns both. *)
