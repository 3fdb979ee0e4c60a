(* ASan-- ("Debloating Address Sanitizer", USENIX Security 2022): the
   same runtime as ASan, with compile-time check debloating:

   - redundant checks within a block are removed;
   - loop-invariant checks are hoisted -- but ONLY for loads: a hoisted
     store check can be invalidated by the store itself overwriting a
     redzone, the asymmetry the paper uses to motivate CECSan's ability
     to hoist both (section II.F.1);
   - statically in-bounds accesses (the [safe] flag) are not checked. *)

let name = "ASan--"

(* ASan-- also feeds the certified-elision pass: allocation is plain
   calls into the intercepted allocator, poison/unpoison moves shadow
   state we do not model (opaque), and there is no spatial-only check
   variant -- only full elision.  Eliding a proven-in-bounds access to a
   live non-escaping object is exact-behavior-preserving: the shadow for
   such an object is unpoisoned over exactly its payload bytes, so the
   elided check could only ever have passed. *)
let model : Tir.Absint.model = {
  Tir.Absint.am_checks =
    [ ("__asan_check_load", None); ("__asan_check_store", None) ];
  am_check_alias = false;
  am_allocs = [];
  am_frees = [];
  am_aliases = [];
  am_opaque = [ "__asan_poison"; "__asan_unpoison" ];
  am_call_allocs =
    [ ("malloc", Tir.Absint.Sarg 0); ("calloc", Tir.Absint.Sprod (0, 1));
      ("realloc", Tir.Absint.Sarg 1) ];
  am_call_frees = [ "free"; "realloc" ];
  am_gpt_load = None;
  am_global_make = None;
  am_strip_mask = Some (-1);
  am_slots = false;  (* protect_stack renumbers slots; play safe *)
}

let spec : Sanitizer.Checkopt.spec = {
  check_load = "__asan_check_load";
  check_store = "__asan_check_store";
  produces_addr = false;
  strip_mask = -1;
  may_hoist_stores = false;
  hazard_intrinsics = [ "__asan_poison"; "__asan_unpoison" ];
  extcall_strip = None;
  absint = Some model;
}

let optimize (md : Tir.Ir.modul) : unit =
  let is_hazard n = List.mem n spec.hazard_intrinsics in
  let pure = Tir.Analysis.pure_callees md ~is_hazard in
  Tir.Ir.iter_funcs md (fun f ->
      if not f.Tir.Ir.f_external then begin
        ignore (Sanitizer.Checkopt.redundant spec ~pure f);
        ignore (Sanitizer.Checkopt.loops spec ~pure md f)
      end);
  ignore (Sanitizer.Checkopt.absint md spec)

let sanitizer () : Sanitizer.Spec.t =
  {
    Sanitizer.Spec.name;
    (* unlike plain ASan, skip accesses proven in-bounds *)
    instrument = Asan.instrument ~checked:not;
    optimize;
    verify = Some spec;
    fresh_runtime = (fun () -> Asan.fresh_runtime ());
  }
