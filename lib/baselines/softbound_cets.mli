(** SoftBound + CETS: per-pointer (base, bound) plus key/lock temporal
    identifiers, value-keyed, with metadata propagated through geps and
    through memory.  The released prototype's warts are reproduced
    mechanistically: wchar_t fails to compile (subset exclusion),
    missing wrappers cause false positives on their returned pointers
    and false negatives on their sinks, and sub-object narrowing is
    claimed but not functional. *)

val sanitizer : unit -> Sanitizer.Spec.t
