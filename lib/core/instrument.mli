(** CECSan compile-time instrumentation, run over the fully linked module
    (the LTO model of the paper: external functions are known).

    Phases: safety-flag downgrade for accesses rooted at protected
    objects, Global Pointer Table rewriting, stack object protection,
    allocation-family rewriting, sub-object narrowing, tag stripping at
    external calls, dereference-check insertion, and the section II.F
    optimizations. *)

val instrument : ?config:Config.t -> ns:string -> Tir.Ir.modul -> unit
(** Check/metadata insertion phases only (no check optimization).  Every
    inserted intrinsic is named [ns ^ "_" ^ entry point] ([ns] is
    ["__cecsan"] for CECSan; PACMem and CryptSan run this pass with
    sub-object narrowing off in their own namespaces). *)

val optimize : ?config:Config.t -> Tir.Ir.modul -> unit
(** The section II.F check optimizations (redundant elimination, loop
    hoisting/grouping), gated by the config's [opt_*] switches. *)
