(* CECSan's instantiation of the shared check optimizer (section II.F).
   Unlike redzone-based tools, CECSan can hoist checks on stores as well
   as loads, because a store cannot corrupt the disjoint metadata
   table. *)

(* Abstract-interpretation model of the CECSan intrinsics for the
   certified-elision pass (DESIGN.md section 16).  Eliding a fused check
   whose pointer provably stays inside a live, non-escaping object is
   exact-behavior-preserving even under OOM: a failed allocation returns
   the null pointer, whose tag indexes metadata entry 0 = (0, va_limit),
   so the check would have passed and the raw access faults identically
   with or without it. *)
let model : Tir.Absint.model = {
  Tir.Absint.am_checks =
    [ ("__cecsan_check_load", Some "__cecsan_check_load_spatial");
      ("__cecsan_check_store", Some "__cecsan_check_store_spatial");
      ("__cecsan_check_load_spatial", None);
      ("__cecsan_check_store_spatial", None) ];
  am_check_alias = true;   (* check dst = stripped alias of the pointer *)
  am_allocs =
    [ ("__cecsan_malloc", Tir.Absint.Sarg 0);
      ("__cecsan_calloc", Tir.Absint.Sprod (0, 1));
      ("__cecsan_realloc", Tir.Absint.Sarg 1) ];
  am_frees = [ "__cecsan_free"; "__cecsan_realloc"; "__cecsan_stack_release" ];
  am_aliases = [ "__cecsan_stack_make"; "__cecsan_extcall_strip" ];
  am_opaque = [ "__cecsan_sub_make"; "__cecsan_sub_release" ];
  am_call_allocs = [];
  am_call_frees = [];
  am_gpt_load = Some "__cecsan_gpt_load";
  am_global_make = Some "__cecsan_global_make";
  am_strip_mask = Some Vm.Layout46.addr_mask;
  am_slots = true;
}

let namespace_spec ?absint ns : Sanitizer.Checkopt.spec = {
  check_load = ns ^ "_check_load";
  check_store = ns ^ "_check_store";
  produces_addr = true;
  strip_mask = Vm.Layout46.addr_mask;
  may_hoist_stores = true;
  hazard_intrinsics =
    List.map (( ^ ) ns)
      [ "_free"; "_realloc"; "_stack_release"; "_sub_release"; "_sub_make";
        "_malloc"; "_calloc"; "_stack_make"; "_global_make" ];
  extcall_strip = Some (ns ^ "_extcall_strip");
  absint;
}

let spec = namespace_spec ~absint:model "__cecsan"

(* The purity closure both optimizer passes and the verifier share:
   callees that provably cannot touch sanitizer metadata. *)
let purity (md : Tir.Ir.modul) : string -> bool =
  let is_hazard n = List.mem n spec.hazard_intrinsics in
  Tir.Analysis.pure_callees md ~is_hazard
