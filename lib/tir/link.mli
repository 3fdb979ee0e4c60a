(** Link-time module merging (the LTO model of paper section II.E):
    combining translation units before instrumentation is what lets the
    pass tell truly-external functions from merely-other-unit ones. *)

exception Link_error of string

val merge :
  ?mark_external:bool -> pos:int -> primary:Ir.modul -> Ir.modul -> unit
(** Merges the second module, the unit at position [pos] of the link
    order, into [primary] (mutating it): secondary definitions resolve
    the primary's extern stubs, internal globals (string literals) are
    renamed apart with the suffix [.u<pos>], struct layouts are checked
    for agreement.  A global name that is already in [primary] after the
    rename raises {!Link_error}, so units merged at distinct positions
    never share a global.  With [mark_external], the secondary's
    function bodies stay uninstrumented -- a precompiled legacy
    library. *)
