(** The simulated address space: a 63-bit machine word (OCaml native
    int) with a 46-bit user VA, leaving exactly the paper's 17 bits for
    pointer tagging (2^17 metadata entries).  See DESIGN.md section 1
    for the substitution argument. *)

val va_limit : int     (* 2^46 *)
val addr_mask : int    (* va_limit - 1 *)

val tag_bits : int     (* 17, as in the paper's prototype *)
val tag_shift : int    (* tag field starts at bit 46 *)
val tag_limit : int    (* 2^17 entries *)

val null_guard : int   (* addresses below this always fault *)
val globals_base : int
val heap_base : int
val heap_limit : int
val stack_top : int    (* the stack grows down from here *)
val stack_limit : int  (* 8 MiB below [stack_top] *)

val shadow_base : int  (* sanitizer area: ASan shadow *)
val tags_base : int    (* sanitizer area: HWASan tag memory *)
val meta_base : int    (* sanitizer area: CECSan metadata table *)
val aux_base : int     (* sanitizer area: GPT and friends *)

val meta_entry : int -> int
(** [meta_entry i] is the address of metadata entry [i]: its low bound
    at +0, high bound at +8, nextID at +16.  An entry's bounds may sit on
    different pages. *)

val page_size : int
val page_of : int -> int

val strip : int -> int
(** Clears the tag field: the raw 46-bit address. *)

val tag_of : int -> int
(** Extracts the 17-bit tag. *)

val with_tag : int -> int -> int
(** [with_tag p t] replaces [p]'s tag field with [t]. *)
