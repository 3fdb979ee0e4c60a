(* Shared machinery for the two ARM-Pointer-Authentication baselines,
   PACMem (CCS 2022) and CryptSan (SAC 2023).

   Both seal a metadata identifier into the free upper bits of each
   pointer and validate object-granularity bounds + liveness at every
   dereference.  They differ in how identifiers are managed (PACMem
   recycles table slots through a free list; CryptSan mints monotonically
   increasing ids and keeps per-object salts) -- and they share the two
   structural blind spots the paper's Table II shows: no sub-object
   narrowing and no wide-character interceptors.

   The compile-time side is CECSan's own pass ([Cecsan.Instrument]) with
   sub-object narrowing off, emitting intrinsics in the tool's namespace
   ([p_prefix]); this module supplies the runtime behind those names. *)

type entry = {
  e_base : int;
  e_bound : int;
  e_salt : int;      (* per-allocation auth value *)
  e_alive : bool;
}

type policy = {
  p_name : string;
  p_prefix : string;               (* intrinsic namespace, e.g. "__pacmem" *)
  p_tag_bits : int;                (* id field width *)
  p_reuse : bool;                  (* recycle freed ids (PACMem) *)
  p_check_cost : int;
}

type t = {
  pol : policy;
  entries : (int, entry) Hashtbl.t;
  mutable next_id : int;
  mutable free_ids : int list;
  mutable salt_src : int;
}

let create pol = {
  pol;
  entries = Hashtbl.create 256;
  next_id = 1;
  free_ids = [];
  salt_src = 0x5A17;
}

let tag_shift = Vm.Layout46.tag_shift

let tag_of rt p = (p lsr tag_shift) land ((1 lsl rt.pol.p_tag_bits) - 1)
let strip p = Vm.Layout46.strip p
let seal _rt p id = strip p lor (id lsl tag_shift)

let fresh_id rt =
  match rt.free_ids with
  | id :: rest when rt.pol.p_reuse ->
    rt.free_ids <- rest;
    id
  | _ ->
    let id = rt.next_id in
    rt.next_id <-
      (if id + 1 >= 1 lsl rt.pol.p_tag_bits then 1 else id + 1);
    id

let register rt base size =
  let id = fresh_id rt in
  rt.salt_src <- rt.salt_src + 0x9E37;
  Hashtbl.replace rt.entries id
    { e_base = base; e_bound = base + size; e_salt = rt.salt_src;
      e_alive = true };
  seal rt base id

let retire rt id =
  (match Hashtbl.find_opt rt.entries id with
   | Some e -> Hashtbl.replace rt.entries id { e with e_alive = false }
   | None -> ());
  if rt.pol.p_reuse then rt.free_ids <- id :: rt.free_ids

let auth rt (st : Vm.State.t) ~write p size =
  Vm.State.tick st rt.pol.p_check_cost;
  let id = tag_of rt p in
  let raw = strip p in
  if id = 0 then raw  (* foreign/untagged pointer: used as-is *)
  else
    match Hashtbl.find_opt rt.entries id with
    | None ->
      (* under Recover the access proceeds on the stripped pointer *)
      Vm.State.report st ~by:rt.pol.p_name ~addr:raw
        (Vm.Report.Other "authentication-failure")
        ~detail:"pointer authentication failed (no metadata)";
      raw
    | Some e ->
      if not e.e_alive then
        Vm.State.report st ~by:rt.pol.p_name ~addr:raw
          Vm.Report.Use_after_free
          ~detail:"authentication failed: object retired"
      else if raw < e.e_base || raw + size > e.e_bound then
        Vm.State.report st ~by:rt.pol.p_name ~addr:raw
          ~detail:
            (Printf.sprintf "bounds [0x%x,0x%x)" e.e_base e.e_bound)
          (if write then Vm.Report.Oob_write else Vm.Report.Oob_read);
      raw

let pa_malloc rt (st : Vm.State.t) size =
  let p = Vm.Heap.malloc st size in
  Vm.State.tick st 14;
  if p = 0 then 0  (* injected OOM: NULL carries no metadata *)
  else register rt p size

let pa_free rt (st : Vm.State.t) p =
  Vm.State.tick st 10;
  if p = 0 then ()
  else begin
    let id = tag_of rt p in
    let raw = strip p in
    if id = 0 then Vm.Heap.free st raw
    else
      match Hashtbl.find_opt rt.entries id with
      | None ->
        Vm.State.report st ~by:rt.pol.p_name ~addr:raw
          Vm.Report.Invalid_free ~detail:"free: authentication failed"
      | Some e ->
        let verdict =
          if not e.e_alive then
            Some (Vm.Report.Double_free, "free of retired object")
          else if raw <> e.e_base then
            Some (Vm.Report.Invalid_free, "free of non-base pointer")
          else if raw < Vm.Layout46.heap_base
               || raw >= Vm.Layout46.heap_limit then
            Some (Vm.Report.Invalid_free, "free of non-heap object")
          else None
        in
        (match verdict with
         | Some (kind, detail) ->
           (* a recovering run treats the bad free as a no-op *)
           Vm.State.report st ~by:rt.pol.p_name ~addr:raw kind ~detail
         | None ->
           retire rt id;
           Vm.Heap.free st raw)
  end

(* --- interceptors: narrow family only (NO wide characters) -------------------- *)

let interceptors rt : string -> Vm.Runtime.interceptor option =
  let st_check st ~write p len =
    if len > 0 then ignore (auth rt st ~write p len)
  in
  let strip_all args = Array.map strip args in
  function
  | "memcpy" | "memmove" ->
    Some (fun st ~raw args ->
        st_check st ~write:true args.(0) args.(2);
        st_check st ~write:false args.(1) args.(2);
        let res = raw (strip_all args) in
        if res = 0 then 0 else args.(0))
  | "memset" ->
    Some (fun st ~raw args ->
        st_check st ~write:true args.(0) args.(2);
        ignore (raw (strip_all args));
        args.(0))
  | "memcmp" ->
    Some (fun st ~raw args ->
        st_check st ~write:false args.(0) args.(2);
        st_check st ~write:false args.(1) args.(2);
        raw (strip_all args))
  | "strcpy" ->
    Some (fun st ~raw args ->
        let n = Vm.Memory.strlen st.Vm.State.mem (strip args.(1)) in
        st_check st ~write:true args.(0) (n + 1);
        st_check st ~write:false args.(1) (n + 1);
        ignore (raw (strip_all args));
        args.(0))
  | "strncpy" ->
    Some (fun st ~raw args ->
        st_check st ~write:true args.(0) args.(2);
        ignore (raw (strip_all args));
        args.(0))
  | "strcat" ->
    Some (fun st ~raw args ->
        let d = Vm.Memory.strlen st.Vm.State.mem (strip args.(0)) in
        let s = Vm.Memory.strlen st.Vm.State.mem (strip args.(1)) in
        st_check st ~write:true args.(0) (d + s + 1);
        ignore (raw (strip_all args));
        args.(0))
  | "strlen" | "atoi" | "puts" ->
    Some (fun st ~raw args ->
        let n = Vm.Memory.strlen st.Vm.State.mem (strip args.(0)) in
        st_check st ~write:false args.(0) (n + 1);
        raw (strip_all args))
  | "strcmp" | "strncmp" ->
    Some (fun st ~raw args ->
        let a = Vm.Memory.strlen st.Vm.State.mem (strip args.(0)) in
        let b = Vm.Memory.strlen st.Vm.State.mem (strip args.(1)) in
        st_check st ~write:false args.(0) (a + 1);
        st_check st ~write:false args.(1) (b + 1);
        raw (strip_all args))
  | "printf" ->
    Some (fun st ~raw args ->
        Vm.State.tick st 3;
        raw (strip_all args))
  | "strchr" ->
    Some (fun _st ~raw args ->
        let res = raw (strip_all args) in
        if res = 0 then 0 else args.(0) + (res - strip args.(0)))
  | "fgets" ->
    Some (fun st ~raw args ->
        st_check st ~write:true args.(0) args.(1);
        let res = raw (strip_all args) in
        if res = 0 then 0 else args.(0))
  | "recv" ->
    Some (fun st ~raw args ->
        st_check st ~write:true args.(1) args.(2);
        raw (strip_all args))
  | "strdup" ->
    Some (fun st ~raw:_ args ->
        let src = strip args.(0) in
        let n = Vm.Memory.strlen st.Vm.State.mem src in
        st_check st ~write:false args.(0) (n + 1);
        let p = pa_malloc rt st (n + 1) in
        Vm.Memory.copy st.Vm.State.mem ~src ~dst:(strip p) ~len:(n + 1);
        p)
  (* wcscpy / wcsncpy / wcscat ... run raw: the blind spot *)
  | _ -> None

(* --- runtime assembly ----------------------------------------------------------- *)

let fresh_runtime (pol : policy) () : Vm.Runtime.t =
  let rt = create pol in
  let gpt = Cecsan.Runtime.gpt_create () in
  let pre = pol.p_prefix in
  let vrt =
    { (Vm.Runtime.plain pol.p_name) with intercept = interceptors rt }
  in
  let reg n f = Hashtbl.replace vrt.Vm.Runtime.intrinsics n f in
  reg (pre ^ "_check_load") (fun st a -> auth rt st ~write:false a.(0) a.(1));
  reg (pre ^ "_check_store") (fun st a -> auth rt st ~write:true a.(0) a.(1));
  reg (pre ^ "_malloc") (fun st a -> pa_malloc rt st a.(0));
  reg (pre ^ "_free") (fun st a -> pa_free rt st a.(0); 0);
  reg (pre ^ "_calloc") (fun st a ->
      let n = a.(0) * a.(1) in
      let p = pa_malloc rt st n in
      Vm.Memory.fill st.Vm.State.mem ~dst:(strip p) ~len:n 0;
      Vm.State.tick st (Vm.Cost.mem_op n);
      p);
  reg (pre ^ "_realloc") (fun st a ->
      let old = a.(0) and size = a.(1) in
      if old = 0 then pa_malloc rt st size
      else begin
        let id = tag_of rt old in
        let raw = strip old in
        let old_size =
          if id = 0 then
            match Vm.Heap.usable_size st raw with
            | Some s -> Some s
            | None ->
              Vm.Report.trap ~addr:raw Vm.Report.Heap_corruption
                ~detail:"realloc(): invalid pointer"
          else
            match Hashtbl.find_opt rt.entries id with
            | Some e when e.e_alive && e.e_base = raw ->
              Some (e.e_bound - e.e_base)
            | Some { e_alive = false; _ } ->
              Vm.State.report st ~by:pol.p_name ~addr:raw
                Vm.Report.Double_free ~detail:"realloc of retired object";
              None
            | _ ->
              Vm.State.report st ~by:pol.p_name ~addr:raw
                Vm.Report.Invalid_free
                ~detail:"realloc authentication failed";
              None
        in
        match old_size with
        | None ->
          (* recovered: serve a fresh block, leave the old one alone *)
          pa_malloc rt st size
        | Some old_size ->
          let p = pa_malloc rt st size in
          if p = 0 then 0  (* injected OOM: the old block survives *)
          else begin
            Vm.Memory.copy st.Vm.State.mem ~src:raw ~dst:(strip p)
              ~len:(min old_size size);
            (if id <> 0 then retire rt id);
            Vm.Heap.free st raw;
            p
          end
      end);
  reg (pre ^ "_stack_make") (fun st a ->
      Vm.State.tick st 9;
      register rt a.(0) a.(1));
  reg (pre ^ "_stack_release") (fun st a ->
      Vm.State.tick st 5;
      let id = tag_of rt a.(0) in
      (match Hashtbl.find_opt rt.entries id with
       | Some e when e.e_alive && e.e_base = strip a.(0) -> retire rt id
       | _ -> ());
      0);
  reg (pre ^ "_global_make") (fun st a ->
      let sealed = register rt a.(0) a.(1) in
      Cecsan.Runtime.gpt_add gpt a.(2) sealed;
      Vm.State.tick st 8;
      0);
  reg (pre ^ "_gpt_load") (fun st a ->
      Vm.State.tick st 2;
      Cecsan.Runtime.gpt_find gpt a.(0));
  reg (pre ^ "_extcall_strip") (fun st a ->
      Vm.State.tick st 2;
      strip a.(0));
  vrt

(* No check optimization and no absint model: the spec of CECSan's
   pass, over the policy's namespace. *)
let sanitizer (pol : policy) : Sanitizer.Spec.t =
  {
    Sanitizer.Spec.name = pol.p_name;
    instrument =
      Cecsan.Instrument.instrument ~config:Cecsan.Config.no_subobject
        ~ns:pol.p_prefix;
    optimize = (fun _ -> ());
    verify = Some (Cecsan.Opt.namespace_spec pol.p_prefix);
    fresh_runtime = fresh_runtime pol;
  }
