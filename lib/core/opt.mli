(** CECSan's instantiation of the shared check optimizer (section II.F):
    the {!Tir.Analysis.spec} that [Instrument.optimize] and the verifier
    both run on.  Unlike redzone tools, CECSan hoists checks on stores
    as well as loads: a store cannot corrupt the disjoint metadata
    table. *)

val namespace_spec : ?certified:bool -> string -> Tir.Analysis.spec
(** The role table of the intrinsics [Instrument.instrument ~ns] emits:
    checks that authenticate and return the stripped address, every
    metadata change a hazard, pointers reaching external code stripped
    first.  [certified] (default [false]) enables certified elision and
    declares the spatial-only check variants it downgrades to. *)

val entry : string -> string -> string
(** [entry ns suffix] is [ns ^ "_" ^ suffix] if {!namespace_spec} [ns]
    declares it, else [Invalid_argument]: the pass emits only names
    with a role. *)

val spec : Tir.Analysis.spec
(** [namespace_spec ~certified:true "__cecsan"]. *)

val purity : Tir.Ir.modul -> string -> bool
(** Memoized [Tir.Analysis.pure_callees] closure over [spec]; share one
    closure across the passes of a pipeline run. *)
