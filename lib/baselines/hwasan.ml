(* HWASan: hardware-assisted memory tagging (MTE-style, 8-bit tags on
   16-byte granules), relying on top-byte-ignore for compatibility.

   Mechanics that produce its Table II misses, all structural:
   - 16-byte granules: an overflow inside the padding of the last
     granule carries the right tag and is missed;
   - 8-bit tags: a far out-of-bounds access is missed with probability
     1/255 (tag collision, deterministic here via the seeded PRNG);
   - no libc interceptors at all -- TBI makes tagged pointers "just
     work" in uninstrumented libc, so an overflow or use-after-free
     through memcpy/strcpy/wcsncpy is never checked (half of the
     CWE416 misses in the paper's data);
   - free() only verifies the pointer's tag against memory, and an
     interior pointer carries the SAME tag as the base -- so invalid
     frees pass the tag check and proceed into the allocator: CWE761
     detection is 0%. *)

open Tir.Ir

let name = "HWASan"

(* tag field: bits 54..61 (8 bits); the VM masks them via tbi_bits *)
let tag_shift = 54
let granule = 16

let tag_of p = (p lsr tag_shift) land 0xff
let with_tag p t = p land lnot (0xff lsl tag_shift) lor (t lsl tag_shift)
let strip p = p land ((1 lsl tag_shift) - 1)

type t = {
  mutable last_tag : int;
  blocks : (int, int) Hashtbl.t;  (* payload -> rounded size *)
}

let tag_addr a = Vm.Layout46.tags_base + (a / granule)

let get_tag (st : Vm.State.t) a =
  Vm.Memory.load_byte st.Vm.State.mem (tag_addr a)

let set_granules (st : Vm.State.t) addr len t =
  let g0 = addr / granule and g1 = (addr + len - 1) / granule in
  for g = g0 to g1 do
    Vm.Memory.store_byte st.Vm.State.mem (Vm.Layout46.tags_base + g) t
  done

let random_tag rt st =
  let t = 1 + (Vm.State.next_rand st mod 255) in
  rt.last_tag <- t;
  t

(* --- allocator wrapper ------------------------------------------------------ *)

let hw_malloc rt (st : Vm.State.t) size =
  (* sizes round to the granule so whole granules carry one tag *)
  let rounded = (max size 1 + granule - 1) / granule * granule in
  let p = Vm.Heap.malloc st rounded in
  if p = 0 then 0  (* injected OOM: NULL carries no tag *)
  else begin
    let t = random_tag rt st in
    set_granules st p rounded t;
    Hashtbl.replace rt.blocks p rounded;
    Vm.State.tick st (10 + (rounded / granule));
    with_tag p t
  end

let hw_free rt (st : Vm.State.t) ptr =
  if ptr = 0 then ()
  else begin
    let raw = strip ptr in
    let t = tag_of ptr in
    (* the only validation: pointer tag vs memory tag; a recovering
       run treats the mismatched free as a no-op *)
    if t <> 0 && get_tag st raw <> t then
      Vm.State.report st ~by:name ~addr:raw Vm.Report.Use_after_free
        ~detail:"free(): pointer tag does not match memory tag"
    else (match Hashtbl.find_opt rt.blocks raw with
     | Some rounded ->
       (* retag freed memory so stale pointers mismatch (until reuse) *)
       set_granules st raw rounded (random_tag rt st);
       Hashtbl.remove rt.blocks raw;
       Vm.State.tick st (5 + (rounded / granule));
       Vm.Heap.free st raw
     | None ->
       (* interior or foreign pointer with a matching tag: falls through
          to the allocator, like the real runtime -- this is why CWE761
          is at 0% *)
       Vm.Heap.free st raw)
  end

let hw_usable rt (st : Vm.State.t) p =
  let raw = strip p in
  match Hashtbl.find_opt rt.blocks raw with
  | Some s -> Some s
  | None ->
    (* realloc of freed memory: the retagged granules no longer match *)
    if tag_of p <> 0 && get_tag st raw <> tag_of p then begin
      Vm.State.report st ~by:name ~addr:raw Vm.Report.Use_after_free
        ~detail:"realloc(): pointer tag does not match memory tag";
      (* recovered: hand realloc an empty old block *)
      Some 0
    end
    else None

(* --- checks ------------------------------------------------------------------ *)

let check (st : Vm.State.t) ~write addr size =
  Vm.State.tick st 4;
  let raw = strip addr in
  let pt = tag_of addr in
  let mt = get_tag st raw in
  if pt <> mt then
    Vm.State.report st ~by:name ~addr:raw
      ~detail:
        (Printf.sprintf "tag mismatch: ptr 0x%02x vs mem 0x%02x (%s of %d)"
           pt mt (if write then "store" else "load") size)
      (Vm.Report.Other "tag-mismatch");
  (* a multi-granule access must match every granule *)
  if size > granule - (raw mod granule) then begin
    let last = raw + size - 1 in
    if get_tag st last <> pt then
      Vm.State.report st ~by:name ~addr:last
        ~detail:"tag mismatch on access tail"
        (Vm.Report.Other "tag-mismatch")
  end

(* --- instrumentation ---------------------------------------------------------- *)

(* Stack tagging: unsafe slots are padded to the granule, tagged in the
   prologue and retagged to 0 in the epilogue; the slot address
   instruction yields the tagged pointer. *)
let protect_stack (md : modul) (f : func) : unit =
  f.f_slots <-
    List.map
      (fun s ->
         if s.s_unsafe then
           { s with
             s_size = (s.s_size + granule - 1) / granule * granule;
             s_align = max s.s_align granule }
         else s)
      f.f_slots;
  Tir.Rewrite.tag_stack md ~make:"__hwasan_tag_stack"
    ~release:"__hwasan_untag_stack"
    ~release_args:(fun p s -> [ p; Imm s.s_size ]) f

(* Unsafe globals must own their granules exclusively: align to the
   granule and pad the size, or tagging would clobber a neighbor. *)
let granule_align_globals (md : modul) : unit =
  md.m_globals <-
    List.map
      (fun g ->
         if g.g_unsafe then begin
           let size = (g.g_size + granule - 1) / granule * granule in
           let image = Bytes.make size '\000' in
           Bytes.blit g.g_image 0 image 0 g.g_size;
           { g with g_size = size; g_align = max g.g_align granule;
                    g_image = image }
         end
         else g)
      md.m_globals

(* Unsafe globals are tagged at startup; references load the tagged
   address through an intrinsic (modelling the tagged-global relocations
   of the real toolchain).  Every function's globals are rewritten
   before stack tagging and checks, which fixes the site numbering. *)
let instrument (md : modul) : unit =
  Tir.Analysis.run md;
  granule_align_globals md;
  let slots = Tir.Rewrite.global_slots md in
  iter_funcs md (fun f ->
      if not f.f_external then
        Tir.Rewrite.load_globals md ~load:"__hwasan_global_addr" slots f);
  Tir.Rewrite.make_globals md ~make:"__hwasan_tag_global" slots;
  iter_funcs md (fun f ->
      if not f.f_external then begin
        protect_stack md f;
        Tir.Rewrite.insert_checks md ~load:"__hwasan_check_load"
          ~store:"__hwasan_check_store" ~returns_addr:false
          ~checked:(fun _ -> true) f
      end)

(* --- read-side interceptors ----------------------------------------------------
   The runtime ships checking wrappers for the common READ-oriented
   string functions (strlen and friends): those scans would otherwise
   silently cross granule boundaries inside raw libc.  The write-side
   functions (memcpy, strcpy, the wide family) rely on TBI alone and run raw --
   overflows and use-after-free routed through them go unseen, which is
   the mechanistic source of the CWE416/121/122 misses. *)

let check_granules st ~write ptr len =
  Vm.State.tick st (4 + (max len 0 / granule));
  if len > 0 then begin
    let pt = tag_of ptr in
    let raw = strip ptr in
    let g0 = raw / granule and g1 = (raw + len - 1) / granule in
    (try
       for g = g0 to g1 do
         if Vm.Memory.load_byte st.Vm.State.mem (Vm.Layout46.tags_base + g)
            <> pt
         then begin
           Vm.State.report st ~by:name ~addr:(g * granule)
             ~detail:
               (Printf.sprintf "range tag mismatch (%s of %d)"
                  (if write then "write" else "read") len)
             (Vm.Report.Other "tag-mismatch");
           (* one recovered report per range is enough *)
           raise Exit
         end
       done
     with Exit -> ())
  end

let interceptors : string -> Vm.Runtime.interceptor option = function
  | "strlen" | "atoi" | "puts" ->
    Some (fun st ~raw args ->
        let n = Vm.Memory.strlen st.Vm.State.mem (strip args.(0)) in
        check_granules st ~write:false args.(0) (n + 1);
        raw args)
  | "strcmp" ->
    Some (fun st ~raw args ->
        let a = Vm.Memory.strlen st.Vm.State.mem (strip args.(0)) in
        let b = Vm.Memory.strlen st.Vm.State.mem (strip args.(1)) in
        check_granules st ~write:false args.(0) (a + 1);
        check_granules st ~write:false args.(1) (b + 1);
        raw args)
  | "strncmp" ->
    Some (fun st ~raw args ->
        check_granules st ~write:false args.(0)
          (min args.(2)
             (Vm.Memory.strlen st.Vm.State.mem (strip args.(0)) + 1));
        raw args)
  | "strchr" ->
    Some (fun st ~raw args ->
        let n = Vm.Memory.strlen st.Vm.State.mem (strip args.(0)) in
        check_granules st ~write:false args.(0) (n + 1);
        raw args)
  | "memcmp" ->
    Some (fun st ~raw args ->
        check_granules st ~write:false args.(0) args.(2);
        check_granules st ~write:false args.(1) args.(2);
        raw args)
  | _ -> None

(* --- runtime ------------------------------------------------------------------ *)

let fresh_runtime () : Vm.Runtime.t =
  let rt = { last_tag = 0; blocks = Hashtbl.create 64 } in
  let globals : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let vrt =
    { (Vm.Runtime.plain name) with
      malloc = Some (hw_malloc rt);
      free_ = Some (hw_free rt);
      intercept = interceptors;
      usable_size = Some (hw_usable rt);
      tbi_bits = 63 - tag_shift }
  in
  let reg n f = Hashtbl.replace vrt.Vm.Runtime.intrinsics n f in
  reg "__hwasan_check_load" (fun st a -> check st ~write:false a.(0) a.(1); 0);
  reg "__hwasan_check_store" (fun st a -> check st ~write:true a.(0) a.(1); 0);
  reg "__hwasan_tag_stack" (fun st a ->
      let t = random_tag rt st in
      set_granules st a.(0) a.(1) t;
      Vm.State.tick st (4 + (a.(1) / granule));
      with_tag a.(0) t);
  reg "__hwasan_untag_stack" (fun st a ->
      set_granules st (strip a.(0)) a.(1) 0;
      Vm.State.tick st (2 + (a.(1) / granule));
      0);
  reg "__hwasan_tag_global" (fun st a ->
      let t = random_tag rt st in
      set_granules st a.(0) (max a.(1) 1) t;
      Hashtbl.replace globals a.(2) (with_tag a.(0) t);
      0);
  reg "__hwasan_global_addr" (fun st a ->
      Vm.State.tick st 2;
      match Hashtbl.find_opt globals a.(0) with
      | Some tagged -> tagged
      | None -> 0);
  vrt

(* No check optimization; tag/untag operations are the metadata hazards. *)
let verify_spec : Tir.Verify.spec = {
  check_load = "__hwasan_check_load";
  check_store = "__hwasan_check_store";
  produces_addr = false;
  strip_mask = -1;
  may_hoist_stores = false;
  hazard_intrinsics =
    [ "__hwasan_tag_stack"; "__hwasan_untag_stack"; "__hwasan_tag_global" ];
  extcall_strip = None;
  absint = None;
}

let sanitizer () : Sanitizer.Spec.t =
  { Sanitizer.Spec.name; instrument; optimize = (fun _ -> ());
    verify = Some verify_spec; fresh_runtime }
