(** The deterministic cycle model (DESIGN.md section 5): baseline
    instruction and libc costs.  Sanitizer-specific costs live with each
    sanitizer. *)

val mov : int
val alu : int
val cmp : int
val gep : int
val load : int
val store : int
val call : int

val malloc_base : int
val malloc_per_64b : int
val free_base : int

val builtin_base : int
val mem_per_8b : int
val str_per_byte : int

val malloc : int -> int
(** Cost of a default-allocator malloc of the given size. *)

val mem_op : int -> int
(** memcpy/memset-style cost for [len] bytes. *)

val str_op : int -> int
