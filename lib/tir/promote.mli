(** Mem2reg-lite: promotes safe scalar stack slots to registers -- the
    -O2 model.  Without it every [i++] would be a checkable memory
    access and the sanitizer overhead comparison would be meaningless. *)

val run : Ir.modul -> int
(** Safety analysis + promotion over every defined function, then a
    re-analysis for consumers.  Returns the total slots promoted. *)
