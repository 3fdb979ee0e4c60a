(* Cycle costs of the CECSan runtime operations: what the inlined
   instruction sequences of the real implementation cost on x86-64.
   A dereference check is a dependent table load plus the fused
   two-sided compare of Algorithm 1. *)

let check = 24            (* dependent, often-cold table load + fused compare + strip *)
let check_spatial = 16    (* temporal half proven statically: the entry cannot
                             be invalidated before this site, so the table load
                             stays warm/hoistable; compare + strip remain *)
let malloc_extra = 12     (* entry allocation in the metadata table *)
let free_extra = 10       (* Algorithm 2 + entry invalidation *)
let stack_make = 13
let stack_release = 6
let sub_make = 13
let sub_release = 5
let gpt_load = 4
let extcall = 4           (* check + strip at an external call boundary *)
let range_check = 14      (* interceptor: one range against one entry *)
let retag = 2
let chain_link = 4        (* walking one overflow-chain link (section V.1) *)
