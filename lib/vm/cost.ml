(* The deterministic cycle model (DESIGN.md section 5).

   These constants are the substitute for the paper's Xeon: what matters
   for reproducing Tables IV/V is the *relative* cost of an instrumented
   access vs. a plain one, and of each sanitizer's allocation path vs.
   the default allocator.  The per-event values below are rough x86-64
   latencies for the instruction sequences each tool actually emits. *)

let alu = 1
let load = 3
let store = 3
let call = 5              (* call/ret pair plus frame setup *)

(* default allocator *)
let malloc_base = 60
let malloc_per_64b = 1
let free_base = 40

(* libc builtins: base plus per-byte throughput *)
let builtin_base = 10
let mem_per_8b = 1        (* memcpy/memset move 8 bytes per cycle *)
let str_per_byte = 1

let malloc size = malloc_base + (size / 64 * malloc_per_64b)
let mem_op len = builtin_base + (len / 8 * mem_per_8b)
let str_op len = builtin_base + (len * str_per_byte)
