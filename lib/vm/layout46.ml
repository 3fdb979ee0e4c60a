(* The simulated address space.

   OCaml native ints are 63-bit, so the VM models a 63-bit machine word
   with a 46-bit user virtual address space.  That leaves bits 46..62 --
   exactly 17 bits -- free for pointer tagging, matching the paper's
   2^17-entry metadata table on x86-64 (there: 47-bit VA inside 64-bit
   words).  See DESIGN.md section 1.

   Region map (all inside the 46-bit VA):

     0x0000_0000_0000 .. 0x0000_0000_1000   null page (always faults)
     0x0000_1000_0000 .. globals_end        globals, grows at load time
     0x0000_2000_0000 .. heap_brk           heap, grows up
     stack_limit      .. 0x0000_4000_0000   stack, grows down
     0x0400_0000_0000 ..                    sanitizer area 1 (shadow)
     0x0500_0000_0000 ..                    sanitizer area 2 (tags)
     0x0600_0000_0000 ..                    sanitizer area 3 (metadata)
     0x0700_0000_0000 ..                    sanitizer area 4 (aux)
*)

let addr_bits = 46
let va_limit = 1 lsl addr_bits
let addr_mask = va_limit - 1

let tag_bits = 17
let tag_shift = addr_bits
let tag_limit = 1 lsl tag_bits          (* 2^17 metadata entries *)

let null_guard = 0x1000
let globals_base = 0x0000_1000_0000
let heap_base = 0x0000_2000_0000
let heap_limit = 0x0000_3800_0000       (* 384 MiB of simulated heap *)
let stack_top = 0x0000_4000_0000
let stack_limit = stack_top - 0x80_0000 (* 8 MiB of stack *)

let shadow_base = 0x0400_0000_0000
let tags_base = 0x0500_0000_0000
let meta_base = 0x0600_0000_0000
let aux_base = 0x0700_0000_0000

(* The metadata-table entry layout (paper Figure 2), the one definition
   read by CECSan's [Meta_table] and by the jit's inlined Algorithm 1:
   24-byte entries from [meta_base], low bound at +0, high bound at +8,
   nextID at +16.  Every word is 8-aligned, so no word straddles a page,
   but an entry's two bounds can sit on different pages (entry 341's
   low bound is the last word of a page). *)
let meta_entry_bytes = 24
let meta_entry i = meta_base + (i * meta_entry_bytes)

let page_size = 4096
let page_of a = a lsr 12

(* Pointer tagging helpers shared by the tagging sanitizers. *)
let strip p = p land addr_mask
let tag_of p = (p lsr tag_shift) land (tag_limit - 1)
let with_tag p t = strip p lor (t lsl tag_shift)
