(** ASan--: the same runtime as ASan with compile-time check debloating
    (redundant elimination, LOAD-only loop hoisting -- a hoisted store
    check could be defeated by the store overwriting a redzone -- and
    elision of statically in-bounds accesses). *)

val name : string
val spec : Tir.Analysis.spec
val sanitizer : unit -> Sanitizer.Spec.t
