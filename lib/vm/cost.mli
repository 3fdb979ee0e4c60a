(** The deterministic cycle model (DESIGN.md section 5): baseline
    instruction and libc costs.  Sanitizer-specific costs live with each
    sanitizer. *)

val alu : int
val load : int
val store : int
val call : int

val free_base : int

val builtin_base : int

val malloc : int -> int
(** Cost of a default-allocator malloc of the given size. *)

val mem_op : int -> int
(** memcpy/memset-style cost for [len] bytes. *)

val str_op : int -> int
