(** CECSan's instantiation of the shared check optimizer (section II.F):
    the {!Sanitizer.Checkopt.spec} that [Instrument.optimize] and the
    verifier both run on.  Unlike redzone tools, CECSan hoists checks on
    stores as well as loads: a store cannot corrupt the disjoint
    metadata table. *)

val namespace_spec :
  ?absint:Tir.Absint.model -> string -> Sanitizer.Checkopt.spec
(** The spec of the intrinsics [Instrument.instrument ~ns] emits: checks
    that authenticate and return the stripped address, every metadata
    change a hazard, pointers reaching external code stripped first. *)

val spec : Sanitizer.Checkopt.spec
(** [namespace_spec ~absint:model "__cecsan"]. *)

val model : Tir.Absint.model
(** Abstract-interpretation model of the CECSan intrinsics, also
    carried inside [spec.absint]. *)

val purity : Tir.Ir.modul -> string -> bool
(** Memoized [Tir.Analysis.pure_callees] closure over [spec]'s hazard
    set; share one closure across the passes of a pipeline run. *)
