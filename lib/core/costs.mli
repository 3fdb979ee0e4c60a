(** Cycle costs of the CECSan runtime operations: what the inlined
    instruction sequences of the real implementation cost on x86-64.
    The dereference check is a dependent (often cache-cold) table load
    plus the fused two-sided compare of Algorithm 1. *)

val check : int
val check_spatial : int
  (* spatial-only downgraded check (DESIGN.md 16): same fused compare,
     but the statically-proven temporal half keeps the entry load warm *)
val malloc_extra : int
val free_extra : int
val stack_make : int
val stack_release : int
val sub_make : int
val sub_release : int
val gpt_load : int
val extcall : int
val range_check : int
val retag : int
val chain_link : int   (* walking one overflow-chain link (section V.1) *)
