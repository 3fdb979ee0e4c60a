(* AddressSanitizer: the redzone/shadow-memory baseline.

   Faithful to the real tool's architecture:
   - a CUSTOM allocator replaces libc malloc (the compatibility cost the
     paper holds against ASan): chunks are laid out contiguously as
     [left redzone | payload | right redzone], redzones poisoned in
     shadow, freed chunks quarantined FIFO up to a byte cap before the
     memory can be reused;
   - every load/store is preceded by a shadow check;
   - stack arrays get in-frame redzones, globals get trailing redzone
     globals;
   - interceptors cover the narrow string/memory functions -- but not
     the wide-character family, which is one mechanistic source of its
     false negatives in Table II (the others: sub-object overflows stay
     inside the allocation; far out-of-bounds strides jump clean over
     the redzone into the next chunk's payload; quarantine eviction
     allows use-after-free memory to be reused). *)

open Tir.Ir

let name = "ASan"

let rz_left = 16
let rz_right size = if size <= 64 then 16 else 32

(* quarantine cap, scaled for our MiniC workloads the way 256 MiB is
   scaled to desktop programs *)
let default_quarantine_cap = 1 lsl 21 (* 2 MiB *)

type t = {
  blocks : (int, int) Hashtbl.t;         (* live payload -> size *)
  freed : (int, int) Hashtbl.t;          (* quarantined payload -> size *)
  quarantine : (int * int) Queue.t;      (* payload, chunk total *)
  mutable quarantine_bytes : int;
  quarantine_cap : int;
  free_lists : (int, int list ref) Hashtbl.t;  (* chunk total -> chunks *)
}

let align_up n a = (n + a - 1) / a * a

let chunk_total size = rz_left + align_up size 8 + rz_right size

(* --- the replacement allocator -------------------------------------------- *)

let asan_malloc rt (st : Vm.State.t) size =
  if size < 0 then
    Vm.Report.trap Vm.Report.Heap_corruption ~detail:"negative size";
  (* the custom allocator bypasses Vm.Heap, so it probes the injector
     itself to share the run's OOM budget *)
  if Vm.Fault.should_oom st.Vm.State.fault then 0 else begin
  let total = chunk_total size in
  let chunk =
    match Hashtbl.find_opt rt.free_lists total with
    | Some ({ contents = c :: rest } as l) ->
      l := rest;
      c
    | Some { contents = [] } | None ->
      let c = align_up st.alloc.Vm.Alloc.brk 16 in
      st.alloc.Vm.Alloc.brk <- c + total;
      if st.alloc.Vm.Alloc.brk >= Vm.Layout46.heap_limit then
        Vm.Report.trap Vm.Report.Heap_corruption
          ~detail:"out of simulated heap";
      c
  in
  let payload = chunk + rz_left in
  Shadow.poison st chunk rz_left Shadow.heap_left;
  Shadow.unpoison st payload size;
  let tail = payload + align_up size 8 in
  Shadow.poison st tail (chunk + total - tail) Shadow.heap_right;
  Hashtbl.replace rt.blocks payload size;
  st.heap_allocs <- st.heap_allocs + 1;
  (* malloc cost plus redzone poisoning, proportional to redzone bytes *)
  Vm.State.tick st (Vm.Cost.malloc size + ((total - size) / 8) + 55);
  payload
  end

let asan_free rt (st : Vm.State.t) payload =
  if payload = 0 then ()
  else if Hashtbl.mem rt.freed payload then
    (* a recovering run treats the bad free as a no-op *)
    Vm.State.report st ~by:name ~addr:payload Vm.Report.Double_free
      ~detail:"attempting double-free"
  else
    match Hashtbl.find_opt rt.blocks payload with
    | None ->
      Vm.State.report st ~by:name ~addr:payload Vm.Report.Invalid_free
        ~detail:"attempting free on address which was not malloc()-ed"
    | Some size ->
      Hashtbl.remove rt.blocks payload;
      Hashtbl.replace rt.freed payload size;
      Shadow.poison st payload (align_up (max size 1) 8) Shadow.heap_freed;
      let total = chunk_total size in
      Queue.push (payload, total) rt.quarantine;
      rt.quarantine_bytes <- rt.quarantine_bytes + total;
      st.heap_frees <- st.heap_frees + 1;
      Vm.State.tick st (Vm.Cost.free_base + (size / 8) + 40);
      (* evict oldest quarantine entries over the cap: their chunks
         become reusable, and a stale pointer into them goes undetected
         from then on *)
      while rt.quarantine_bytes > rt.quarantine_cap do
        let q, qt = Queue.pop rt.quarantine in
        Hashtbl.remove rt.freed q;
        rt.quarantine_bytes <- rt.quarantine_bytes - qt;
        let l =
          match Hashtbl.find_opt rt.free_lists qt with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.replace rt.free_lists qt l;
            l
        in
        l := (q - rz_left) :: !l
      done

let usable_size rt (st : Vm.State.t) payload =
  (* realloc of a quarantined block is a detected double-free/UAF *)
  if Hashtbl.mem rt.freed payload then begin
    Vm.State.report st ~by:name ~addr:payload Vm.Report.Double_free
      ~detail:"attempting realloc on freed memory";
    (* recovered: hand realloc an empty old block *)
    Some 0
  end
  else Hashtbl.find_opt rt.blocks payload

(* --- checks ----------------------------------------------------------------- *)

let check rt (st : Vm.State.t) ~write addr size =
  ignore rt;
  Vm.State.tick st 8;
  if not (Shadow.access_ok st addr size) then begin
    let code = Shadow.get st addr in
    let code =
      if code <> 0 then code else Shadow.get st ((addr lor 7) + 1)
    in
    Vm.State.report st ~by:name ~addr
      ~detail:(Printf.sprintf "shadow byte 0x%02x, %d-byte access" code size)
      (Shadow.classify code ~write)
  end

let check_region rt (st : Vm.State.t) ~write addr len =
  ignore rt;
  Vm.State.tick st (8 + (max len 0 / 8));
  if len > 0 then
    match Shadow.range_bad st addr len with
    | None -> ()
    | Some bad ->
      let code = Shadow.get st bad in
      Vm.State.report st ~by:name ~addr:bad
        ~detail:(Printf.sprintf "region of %d bytes" len)
        (Shadow.classify code ~write)

(* shadow-checked strlen used by the string interceptors *)
let checked_strlen rt st a =
  let rec go k =
    check rt st ~write:false (a + k) 1;
    if Vm.Memory.load_byte st.Vm.State.mem (a + k) = 0 then k
    else if k > 1 lsl 24 then
      Vm.Report.trap ~addr:a Vm.Report.Segfault ~detail:"unterminated string"
    else go (k + 1)
  in
  go 0

(* --- instrumentation --------------------------------------------------------- *)

(* Inserts in-frame redzones around unsafe stack slots and returns the
   poison/unpoison intrinsics for prologue and epilogue. *)
let protect_stack (md : modul) (f : func) : unit =
  let unsafe = List.filter (fun s -> s.s_unsafe) f.f_slots in
  if unsafe <> [] then begin
    (* rebuild the slot list with redzone slots; renumber and remap *)
    let remap : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let next = ref 0 in
    let out = ref [] in
    let rz_of : (int * (int * int)) list ref = ref [] in
    (* payload slot -> (rzL slot, rzR slot) *)
    List.iter
      (fun s ->
         if s.s_unsafe then begin
           let mk nm size =
             let id = !next in
             incr next;
             out := { s_id = id; s_name = nm; s_size = size; s_align = 8;
                      s_ty = Minic.Ast.Tarr (Minic.Ast.Tchar, size);
                      s_unsafe = false }
                    :: !out;
             id
           in
           let l = mk (s.s_name ^ "__rzL") 32 in
           let id = !next in
           incr next;
           Hashtbl.replace remap s.s_id id;
           out := { s with s_id = id; s_align = max s.s_align 8 } :: !out;
           let r = mk (s.s_name ^ "__rzR") 32 in
           rz_of := (id, (l, r)) :: !rz_of
         end
         else begin
           let id = !next in
           incr next;
           Hashtbl.replace remap s.s_id id;
           out := { s with s_id = id } :: !out
         end)
      f.f_slots;
    f.f_slots <- List.rev !out;
    Tir.Rewrite.map_instrs
      (function
        | Islot { dst; slot } -> [ Islot { dst; slot = Hashtbl.find remap slot } ]
        | i -> [ i ])
      f;
    let sized : (int, int) Hashtbl.t = Hashtbl.create 8 in
    List.iter (fun s -> Hashtbl.replace sized s.s_id s.s_size) f.f_slots;
    let poison_code slot len code =
      let a = fresh_reg f in
      [ Islot { dst = a; slot };
        Iintrin { dst = None; name = "__asan_poison";
                  args = [ Reg a; Imm len; Imm code ];
                  site = fresh_site md } ]
    in
    let unpoison_slot slot len =
      let a = fresh_reg f in
      [ Islot { dst = a; slot };
        Iintrin { dst = None; name = "__asan_unpoison";
                  args = [ Reg a; Imm len ]; site = fresh_site md } ]
    in
    let prologue =
      List.concat_map
        (fun (payload, (l, r)) ->
           poison_code l 32 Shadow.stack_red
           @ poison_code r 32 Shadow.stack_red
           @ unpoison_slot payload (Hashtbl.find sized payload))
        !rz_of
    in
    Tir.Rewrite.insert_prologue f prologue;
    let rz_list = !rz_of in
    Tir.Rewrite.insert_before_rets f (fun () ->
        List.concat_map
          (fun (payload, (l, r)) ->
             unpoison_slot l 32 @ unpoison_slot r 32
             @ unpoison_slot payload
                 (align_up (Hashtbl.find sized payload) 8))
          rz_list)
  end

(* Appends a redzone global after every unsafe global and returns the
   main-entry poison code. *)
let protect_globals (md : modul) : instr list =
  let init = ref [] in
  let with_rz =
    List.concat_map
      (fun g ->
         if g.g_unsafe then begin
           let rz_name = g.g_name ^ "__asan_rz" in
           init :=
             Iintrin { dst = None; name = "__asan_poison";
                       args = [ Glob rz_name; Imm 32; Imm Shadow.global_red ];
                       site = fresh_site md }
             :: !init;
           [ g;
             { g_name = rz_name; g_size = 32; g_align = 8;
               g_image = Bytes.make 32 '\000';
               g_ty = Minic.Ast.Tarr (Minic.Ast.Tchar, 32);
               g_internal = true; g_unsafe = false } ]
         end
         else [ g ])
      md.m_globals
  in
  md.m_globals <- with_rz;
  !init

(* Shadow checks on the accesses whose [safe] flag satisfies [checked]:
   ASan checks all of them, ASan-- only the unproven ones. *)
let instrument ~(checked : bool -> bool) (md : modul) : unit =
  Tir.Analysis.run md;
  iter_funcs md (fun f ->
      if not f.f_external then begin
        protect_stack md f;
        Tir.Rewrite.insert_checks md ~load:"__asan_check_load"
          ~store:"__asan_check_store" ~returns_addr:false ~checked f
      end);
  Tir.Rewrite.insert_main_prologue md (protect_globals md)

(* --- interceptors: narrow family only ---------------------------------------- *)

let interceptors rt : string -> Vm.Runtime.interceptor option = function
  | "memcpy" | "memmove" ->
    Some (fun st ~raw args ->
        check_region rt st ~write:false args.(1) args.(2);
        check_region rt st ~write:true args.(0) args.(2);
        raw args)
  | "memset" ->
    Some (fun st ~raw args ->
        check_region rt st ~write:true args.(0) args.(2);
        raw args)
  | "memcmp" ->
    Some (fun st ~raw args ->
        check_region rt st ~write:false args.(0) args.(2);
        check_region rt st ~write:false args.(1) args.(2);
        raw args)
  | "strcpy" ->
    Some (fun st ~raw args ->
        let n = checked_strlen rt st args.(1) in
        check_region rt st ~write:true args.(0) (n + 1);
        raw args)
  | "strncpy" ->
    Some (fun st ~raw args ->
        check_region rt st ~write:true args.(0) args.(2);
        raw args)
  | "strcat" ->
    Some (fun st ~raw args ->
        let d = checked_strlen rt st args.(0) in
        let s = checked_strlen rt st args.(1) in
        check_region rt st ~write:true args.(0) (d + s + 1);
        raw args)
  | "strncat" ->
    Some (fun st ~raw args ->
        let d = checked_strlen rt st args.(0) in
        let s = min (checked_strlen rt st args.(1)) args.(2) in
        check_region rt st ~write:true args.(0) (d + s + 1);
        raw args)
  | "strlen" ->
    Some (fun st ~raw args ->
        let n = checked_strlen rt st args.(0) in
        ignore (raw args);
        n)
  | "strcmp" | "strncmp" | "atoi" | "puts" ->
    Some (fun st ~raw args ->
        ignore (checked_strlen rt st args.(0));
        raw args)
  | "strchr" ->
    Some (fun st ~raw args ->
        ignore (checked_strlen rt st args.(0));
        raw args)
  | "fgets" ->
    Some (fun st ~raw args ->
        check_region rt st ~write:true args.(0) args.(1);
        raw args)
  | "recv" ->
    Some (fun st ~raw args ->
        check_region rt st ~write:true args.(1) args.(2);
        raw args)
  (* NO wide-character interceptors: wcscpy/wcsncpy/wcscat run raw *)
  | _ -> None

(* --- assembly ----------------------------------------------------------------- *)

let fresh_runtime ?(quarantine_cap = default_quarantine_cap) () :
  Vm.Runtime.t =
  let rt = {
    blocks = Hashtbl.create 64;
    freed = Hashtbl.create 64;
    quarantine = Queue.create ();
    quarantine_bytes = 0;
    quarantine_cap;
    free_lists = Hashtbl.create 16;
  } in
  let vrt =
    { (Vm.Runtime.plain name) with
      malloc = Some (asan_malloc rt);
      free_ = Some (asan_free rt);
      intercept = interceptors rt;
      usable_size = Some (usable_size rt) }
  in
  let reg n f = Hashtbl.replace vrt.Vm.Runtime.intrinsics n f in
  reg "__asan_check_load" (fun st a ->
      check rt st ~write:false a.(0) a.(1);
      0);
  reg "__asan_check_store" (fun st a ->
      check rt st ~write:true a.(0) a.(1);
      0);
  reg "__asan_poison" (fun st a ->
      Vm.State.tick st (2 + (a.(1) / 8));
      Shadow.poison st a.(0) a.(1) a.(2);
      0);
  reg "__asan_unpoison" (fun st a ->
      Vm.State.tick st (2 + (a.(1) / 8));
      Shadow.unpoison st a.(0) a.(1);
      0);
  vrt

(* ASan performs no check optimization; the verifier spec still lets
   Tir.Verify prove every unsafe access sits behind its shadow check. *)
let verify_spec : Tir.Verify.spec = {
  check_load = "__asan_check_load";
  check_store = "__asan_check_store";
  produces_addr = false;
  strip_mask = -1;
  may_hoist_stores = false;
  hazard_intrinsics = [ "__asan_poison"; "__asan_unpoison" ];
  extcall_strip = None;
  absint = None;
}

let sanitizer ?quarantine_cap () : Sanitizer.Spec.t =
  {
    Sanitizer.Spec.name;
    instrument = instrument ~checked:(fun _ -> true);
    optimize = (fun _ -> ());
    verify = Some verify_spec;
    fresh_runtime = (fun () -> fresh_runtime ?quarantine_cap ());
  }
