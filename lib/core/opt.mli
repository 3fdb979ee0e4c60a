(** CECSan's instantiation of the shared check optimizer (section II.F):
    the {!Sanitizer.Checkopt.spec} that [Instrument.optimize] and the
    verifier both run on.  Unlike redzone tools, CECSan hoists checks on
    stores as well as loads: a store cannot corrupt the disjoint
    metadata table. *)

val spec : Sanitizer.Checkopt.spec

val model : Tir.Absint.model
(** Abstract-interpretation model of the CECSan intrinsics, also
    carried inside [spec.absint]. *)

val purity : Tir.Ir.modul -> string -> bool
(** Memoized [Tir.Analysis.pure_callees] closure over [spec]'s hazard
    set; share one closure across the passes of a pipeline run. *)
