(** Sub-object granularity protection (paper section II.D, Figure 3).

    Field pointers that are derived from (indexed or passed to libc) are
    re-tagged with a temporary metadata entry covering just the field;
    the entry is released when the pointer's (provably block-local)
    lifetime ends.  Direct full-width scalar field accesses are left at
    object granularity: they cannot violate sub-object bounds. *)

val narrow :
  make:string -> release:string -> Tir.Ir.modul -> Tir.Ir.func -> int
(** Rewrites eligible field geps in the function; returns the number of
    narrowing sites introduced.  [make] and [release] name the intrinsics
    that mint and release a field's metadata entry. *)
