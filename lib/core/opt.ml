(* CECSan's instantiation of the shared check optimizer (section II.F).
   Unlike redzone-based tools, CECSan can hoist checks on stores as well
   as loads, because a store cannot corrupt the disjoint metadata
   table. *)

open Tir.Analysis

(* Certified elision (DESIGN.md section 16) of a fused check whose
   pointer provably stays inside a live, non-escaping object is
   exact-behavior-preserving even under OOM: a failed allocation returns
   the null pointer, whose tag indexes metadata entry 0 = (0, va_limit),
   so the check would have passed and the raw access faults identically
   with or without it. *)
(* A namespace's entry points other than its checks, by suffix. *)
let entry_points =
  [ ("malloc", Alloc (Sarg 0)); ("calloc", Alloc (Sprod (0, 1)));
    ("realloc", Realloc (Sarg 1)); ("free", Free);
    ("stack_make", Make); ("stack_release", Free);
    ("sub_make", Opaque); ("sub_release", Opaque);
    ("global_make", Global_make); ("gpt_load", Gpt_load);
    ("extcall_strip", Strip) ]

let namespace_spec ?(certified = false) ns : spec =
  let n suffix = ns ^ "_" ^ suffix in
  { check_load = n "check_load"; check_store = n "check_store";
    spatial = certified;
    intrinsics = roles (List.map (fun (s, r) -> (n s, r)) entry_points);
    calls = roles [];
    produces_addr = true;
    strip_mask = Vm.Layout46.addr_mask;
    may_hoist_stores = true;
    slots = true;
    certified }

let entry ns suffix =
  if
    List.exists (String.equal suffix) [ "check_load"; "check_store" ]
    || List.exists (fun (s, _) -> String.equal s suffix) entry_points
  then ns ^ "_" ^ suffix
  else invalid_arg ("Opt.entry: " ^ suffix)

let spec = namespace_spec ~certified:true "__cecsan"

(* The purity closure both optimizer passes and the verifier share:
   callees that provably cannot touch sanitizer metadata. *)
let purity (md : Tir.Ir.modul) : string -> bool = pure_callees md spec
