(** Human-readable IR printer, used by tests, examples and the
    Figure 4 demonstration. *)

val pp_opnd : Format.formatter -> Ir.opnd -> unit
val func_to_string : Ir.func -> string
val module_to_string : Ir.modul -> string
