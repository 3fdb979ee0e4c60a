(* SoftBound + CETS: per-pointer bounds (spatial) plus key/lock
   identifiers (temporal).

   Metadata model: every pointer VALUE carries (base, bound, key, lock)
   in a disjoint map; metadata is created at allocation sites, propagated
   through pointer arithmetic (instrumented geps) and through memory (a
   second map keyed by the address a pointer is stored at).  This is the
   compiler-propagated shadow state of the real system, value-keyed
   because our IR is interpreted.

   The released prototype's well-known warts are reproduced
   mechanistically, because the paper's Table II hinges on them:
   - wide-character support is missing: any program touching wchar_t
     fails to "compile" ([Sanitizer.Spec.Unsupported]), which is how the
     evaluated subset shrinks to 3970 of 15752;
   - several libc wrappers are missing (strchr, strdup, fgets, recv,
     strncat): pointers returned by those come back with NULL bounds and
     the next dereference through them FALSELY reports -- the prototype's
     high false-positive rate;
   - sub-object bounds narrowing is claimed but not functional: field
     geps inherit the whole object's bounds, so sub-object overflows are
     missed. *)

open Tir.Ir

let name = "SoftBound/CETS"

type meta = { base : int; bound : int; key : int; lock : int }

type t = {
  (* pointer value -> metadata *)
  vmeta : (int, meta) Hashtbl.t;
  (* address where a pointer is stored -> metadata *)
  smeta : (int, meta) Hashtbl.t;
  (* lock id -> current key; freed locks get a new key *)
  locks : (int, int) Hashtbl.t;
  mutable next_lock : int;
  mutable next_key : int;
}

let null_meta = { base = 0; bound = 0; key = 0; lock = 0 }

let fresh_lock rt =
  let l = rt.next_lock in
  rt.next_lock <- l + 1;
  let k = rt.next_key in
  rt.next_key <- k + 1;
  Hashtbl.replace rt.locks l k;
  (l, k)

let revoke rt l =
  let k = rt.next_key in
  rt.next_key <- k + 1;
  Hashtbl.replace rt.locks l k

let meta_of rt v =
  match Hashtbl.find_opt rt.vmeta v with
  | Some m -> m
  | None -> null_meta

let set_meta rt v m = if v <> 0 then Hashtbl.replace rt.vmeta v m

(* --- runtime operations ------------------------------------------------------ *)

let sb_create rt ?(temporal = true) base size =
  let lock, key = if temporal then fresh_lock rt else (0, 0) in
  set_meta rt base { base; bound = base + size; key; lock }

let sb_check rt (st : Vm.State.t) ~write v size =
  Vm.State.tick st 8;
  let m = meta_of rt v in
  if m.lock <> 0 then begin
    match Hashtbl.find_opt rt.locks m.lock with
    | Some k when k = m.key -> ()
    | _ ->
      Vm.State.report st ~by:name ~addr:v Vm.Report.Use_after_free
        ~detail:"key/lock mismatch"
  end;
  if v < m.base || v + size > m.bound then
    Vm.State.report st ~by:name ~addr:v
      ~detail:
        (Printf.sprintf "bounds [0x%x,0x%x), access of %d" m.base m.bound
           size)
      (if write then Vm.Report.Oob_write else Vm.Report.Oob_read)

let sb_malloc rt (st : Vm.State.t) size =
  let p = Vm.Heap.malloc st size in
  Vm.State.tick st 15;
  sb_create rt p size;
  p

let sb_free rt (st : Vm.State.t) p =
  Vm.State.tick st 12;
  if p = 0 then ()
  else begin
    let m = meta_of rt p in
    let verdict =
      if m.bound = 0 then
        Some (Vm.Report.Invalid_free, "free of pointer without metadata")
      else if
        m.lock <> 0
        && (match Hashtbl.find_opt rt.locks m.lock with
            | Some k when k = m.key -> false
            | _ -> true)
      then Some (Vm.Report.Double_free, "free through dangling pointer")
      else if p <> m.base then
        Some (Vm.Report.Invalid_free, "free of non-base pointer")
      else if p < Vm.Layout46.heap_base || p >= Vm.Layout46.heap_limit then
        Some (Vm.Report.Invalid_free, "free of non-heap object")
      else None
    in
    match verdict with
    | Some (kind, detail) ->
      (* a recovering run treats the bad free as a no-op *)
      Vm.State.report st ~by:name ~addr:p kind ~detail
    | None ->
      if m.lock <> 0 then revoke rt m.lock;
      Vm.Heap.free st p
  end

(* --- instrumentation ----------------------------------------------------------- *)

(* The compile-error surface of the released prototype. *)
let check_supported (md : modul) : unit =
  let fail msg = raise (Sanitizer.Spec.Unsupported msg) in
  let rec has_wchar : Minic.Ast.ty -> bool = function
    | Minic.Ast.Twchar -> true
    | Tptr t | Tarr (t, _) -> has_wchar t
    | Tvoid | Tchar | Tshort | Tint | Tlong | Tstruct _ | Tfun _ -> false
  in
  iter_funcs md (fun f ->
      List.iter
        (fun s -> if has_wchar s.s_ty then fail "wchar_t is not supported")
        f.f_slots;
      Array.iter
        (fun b ->
           List.iter
             (function
               | Icall { callee; _ }
                 when (match callee with
                     | "wcscpy" | "wcsncpy" | "wcslen" | "wcscat"
                     | "wcscmp" -> true
                     | _ -> false) ->
                 fail ("missing prototype for " ^ callee)
               | _ -> ())
             b.b_instrs)
        f.f_blocks);
  List.iter
    (fun g -> if has_wchar g.g_ty then fail "wchar_t global not supported")
    md.m_globals

(* functions that RETURN a pointer but have no wrapper: the result gets
   no metadata, and later dereferences false-positive *)
let unwrapped_ptr_return = function
  | "strchr" | "strdup" | "fgets" -> true
  | _ -> false

let instrument (md : modul) : unit =
  check_supported md;
  Tir.Analysis.run md;
  iter_funcs md (fun f ->
      if not f.f_external then begin
        Cecsan.Instrument.rewrite_allocs md ~ns:"__sb" f;
        (* metadata propagation and checks *)
        Tir.Rewrite.map_instrs
          (function
            | Igep { dst; base; _ } as i ->
              (* propagate pointer metadata through arithmetic *)
              [ i;
                Iintrin { dst = None; name = "__sb_copy_meta";
                          args = [ Reg dst; base ]; site = fresh_site md } ]
            | Iload { dst; addr; size; safe; _ } as i ->
              let check =
                if safe then []
                else
                  [ Iintrin { dst = None; name = "__sb_check_load";
                              args = [ addr; Imm size ];
                              site = fresh_site md } ]
              in
              if size = 8 then
                (* a pointer may be loaded: fetch its in-memory metadata *)
                check
                @ [ i;
                    Iintrin { dst = None; name = "__sb_load_meta";
                              args = [ addr; Reg dst ];
                              site = fresh_site md } ]
              else check @ [ i ]
            | Istore { addr; src; size; safe; _ } as i ->
              let check =
                if safe then []
                else
                  [ Iintrin { dst = None; name = "__sb_check_store";
                              args = [ addr; Imm size ];
                              site = fresh_site md } ]
              in
              if size = 8 then
                check
                @ [ i;
                    Iintrin { dst = None; name = "__sb_store_meta";
                              args = [ addr; src ]; site = fresh_site md } ]
              else check @ [ i ]
            | i -> [ i ])
          f;
        (* stack objects *)
        let unsafe = List.filter (fun s -> s.s_unsafe) f.f_slots in
        if unsafe <> [] then begin
          let prologue =
            List.concat_map
              (fun s ->
                 let a = fresh_reg f in
                 [ Islot { dst = a; slot = s.s_id };
                   Iintrin { dst = None; name = "__sb_stack_create";
                             args = [ Reg a; Imm s.s_size ];
                             site = fresh_site md } ])
              unsafe
          in
          Tir.Rewrite.insert_prologue f prologue;
          Tir.Rewrite.insert_before_rets f (fun () ->
              List.concat_map
                (fun s ->
                   let a = fresh_reg f in
                   [ Islot { dst = a; slot = s.s_id };
                     Iintrin { dst = None; name = "__sb_stack_destroy";
                               args = [ Reg a ]; site = fresh_site md } ])
                unsafe)
        end
      end);
  (* globals get whole-program metadata at startup *)
  Tir.Rewrite.insert_main_prologue md
    (List.map
       (fun (g, _) ->
          Iintrin { dst = None; name = "__sb_global_create";
                    args = [ Glob g.g_name; Imm g.g_size ];
                    site = fresh_site md })
       (Tir.Rewrite.global_slots md))

(* --- interceptors: the wrapped subset ------------------------------------------ *)

let interceptors rt : string -> Vm.Runtime.interceptor option = function
  | "memcpy" | "memmove" ->
    Some (fun st ~raw args ->
        sb_check rt st ~write:true args.(0) args.(2);
        sb_check rt st ~write:false args.(1) args.(2);
        raw args)
  | "memset" ->
    Some (fun st ~raw args ->
        sb_check rt st ~write:true args.(0) args.(2);
        raw args)
  | "strcpy" ->
    Some (fun st ~raw args ->
        let n = Vm.Memory.strlen st.Vm.State.mem args.(1) in
        sb_check rt st ~write:true args.(0) (n + 1);
        sb_check rt st ~write:false args.(1) (n + 1);
        raw args)
  | "strncpy" ->
    Some (fun st ~raw args ->
        sb_check rt st ~write:true args.(0) args.(2);
        raw args)
  | "strcat" ->
    Some (fun st ~raw args ->
        let d = Vm.Memory.strlen st.Vm.State.mem args.(0) in
        let s = Vm.Memory.strlen st.Vm.State.mem args.(1) in
        sb_check rt st ~write:true args.(0) (d + s + 1);
        raw args)
  | "strlen" | "puts" | "atoi" ->
    Some (fun st ~raw args ->
        let n = Vm.Memory.strlen st.Vm.State.mem args.(0) in
        sb_check rt st ~write:false args.(0) (n + 1);
        raw args)
  | "strcmp" | "strncmp" ->
    Some (fun st ~raw args ->
        let a = Vm.Memory.strlen st.Vm.State.mem args.(0) in
        let b = Vm.Memory.strlen st.Vm.State.mem args.(1) in
        sb_check rt st ~write:false args.(0) (a + 1);
        sb_check rt st ~write:false args.(1) (b + 1);
        raw args)
  | "memcmp" ->
    Some (fun st ~raw args ->
        sb_check rt st ~write:false args.(0) args.(2);
        sb_check rt st ~write:false args.(1) args.(2);
        raw args)
  | "printf" ->
    Some (fun st ~raw args ->
        Vm.State.tick st 4;
        raw args)
  | name when unwrapped_ptr_return name ->
    Some (fun st ~raw args ->
        (* no wrapper: the call itself works, but the returned pointer
           gets NULL bounds -> later dereference reports spuriously *)
        let res = raw args in
        Vm.State.tick st 2;
        if res <> 0 then Hashtbl.replace rt.vmeta res null_meta;
        res)
  | _ -> None

(* --- runtime assembly ------------------------------------------------------------ *)

let fresh_runtime () : Vm.Runtime.t =
  let rt = {
    vmeta = Hashtbl.create 256;
    smeta = Hashtbl.create 256;
    locks = Hashtbl.create 64;
    next_lock = 1;
    next_key = 1;
  } in
  let vrt = { (Vm.Runtime.plain name) with intercept = interceptors rt } in
  let reg n f = Hashtbl.replace vrt.Vm.Runtime.intrinsics n f in
  reg "__sb_malloc" (fun st a -> sb_malloc rt st a.(0));
  reg "__sb_free" (fun st a -> sb_free rt st a.(0); 0);
  reg "__sb_calloc" (fun st a ->
      let n = a.(0) * a.(1) in
      let p = sb_malloc rt st n in
      Vm.Memory.fill st.Vm.State.mem ~dst:p ~len:n 0;
      Vm.State.tick st (Vm.Cost.mem_op n);
      p);
  reg "__sb_realloc" (fun st a ->
      let old = a.(0) and size = a.(1) in
      if old = 0 then sb_malloc rt st size
      else begin
        let m = meta_of rt old in
        let dangling =
          m.lock <> 0
          && (match Hashtbl.find_opt rt.locks m.lock with
              | Some k when k = m.key -> false
              | _ -> true)
        in
        if dangling then begin
          Vm.State.report st ~by:name ~addr:old Vm.Report.Double_free
            ~detail:"realloc through dangling pointer";
          (* recovered: serve a fresh block, leave the old one alone *)
          sb_malloc rt st size
        end
        else begin
          let old_size = if m.bound > m.base then m.bound - m.base else 0 in
          let p = sb_malloc rt st size in
          if p = 0 then 0  (* injected OOM: the old block survives *)
          else begin
            Vm.Memory.copy st.Vm.State.mem ~src:old ~dst:p
              ~len:(min old_size size);
            if m.lock <> 0 then revoke rt m.lock;
            Vm.Heap.free st old;
            p
          end
        end
      end);
  reg "__sb_check_load" (fun st a ->
      sb_check rt st ~write:false a.(0) a.(1);
      0);
  reg "__sb_check_store" (fun st a ->
      sb_check rt st ~write:true a.(0) a.(1);
      0);
  reg "__sb_copy_meta" (fun st a ->
      Vm.State.tick st 3;
      (match Hashtbl.find_opt rt.vmeta a.(1) with
       | Some m -> set_meta rt a.(0) m
       | None -> if a.(0) <> 0 then Hashtbl.remove rt.vmeta a.(0));
      0);
  reg "__sb_load_meta" (fun st a ->
      Vm.State.tick st 6;
      (match Hashtbl.find_opt rt.smeta a.(0) with
       | Some m -> set_meta rt a.(1) m
       | None -> ());
      0);
  reg "__sb_store_meta" (fun st a ->
      Vm.State.tick st 6;
      (match Hashtbl.find_opt rt.vmeta a.(1) with
       | Some m -> Hashtbl.replace rt.smeta a.(0) m
       | None -> Hashtbl.remove rt.smeta a.(0));
      0);
  reg "__sb_stack_create" (fun st a ->
      Vm.State.tick st 10;
      sb_create rt a.(0) a.(1);
      0);
  reg "__sb_stack_destroy" (fun st a ->
      Vm.State.tick st 6;
      let m = meta_of rt a.(0) in
      if m.lock <> 0 && m.base = a.(0) then revoke rt m.lock;
      0);
  reg "__sb_global_create" (fun st a ->
      Vm.State.tick st 8;
      sb_create rt ~temporal:false a.(0) a.(1);
      0);
  vrt

(* No check optimization; allocation/lifetime intrinsics invalidate the
   disjoint metadata a previous check relied on. *)
let verify_spec : Tir.Verify.spec = {
  check_load = "__sb_check_load";
  check_store = "__sb_check_store";
  produces_addr = false;
  strip_mask = -1;
  may_hoist_stores = false;
  hazard_intrinsics =
    [ "__sb_malloc"; "__sb_free"; "__sb_calloc"; "__sb_realloc";
      "__sb_stack_create"; "__sb_stack_destroy"; "__sb_global_create" ];
  extcall_strip = None;
  absint = None;
}

let sanitizer () : Sanitizer.Spec.t =
  { Sanitizer.Spec.name; instrument; optimize = (fun _ -> ());
    verify = Some verify_spec; fresh_runtime }
