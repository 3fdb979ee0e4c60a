(* The CECSan runtime library: intrinsic implementations (Algorithms 1
   and 2, metadata management) and the libc interceptors.

   Crucially there is NO custom allocator here: allocation goes through
   [Vm.Heap] (the default allocator), and CECSan only wraps it with
   metadata bookkeeping -- the compatibility property the paper claims
   over ASan. *)

module L = Vm.Layout46

let name = "CECSan"

(* The Global Pointer Table's lookup side: slot -> tagged pointer in a
   growable array, 0 for a slot never made (no made pointer is 0: every
   global sits above the null guard).  Slots are the instrumentation's
   dense 0-based global indices, so the array stays as small as the
   program's unsafe globals. *)
type gpt = { mutable slots : int array }

let gpt_create () = { slots = [||] }

let gpt_find g slot =
  if slot >= 0 && slot < Array.length g.slots then
    Array.unsafe_get g.slots slot
  else 0

let gpt_add g slot v =
  if slot >= 0 then begin
    let n = Array.length g.slots in
    if slot >= n then begin
      let a = Array.make (max (slot + 1) (2 * n)) 0 in
      Array.blit g.slots 0 a 0 n;
      g.slots <- a
    end;
    Array.unsafe_set g.slots slot v
  end

type t = {
  mutable table : Meta_table.t option;
  gpt : gpt;                          (* global slot -> tagged pointer *)
  mutable reports_sub_object : int;
  chain_overflow : bool;              (* the section V.1 extension *)
  (* telemetry, published as gauges by [at_exit] *)
  mutable entry0_hits : int;          (* checks on untagged/foreign ptrs *)
  mutable sub_temporaries : int;      (* narrowed entries materialized *)
}

let get_table rt (st : Vm.State.t) =
  match rt.table with
  | Some t -> t
  | None ->
    (* the runtime's load-time constructor: mmap + init the table *)
    let t = Meta_table.create ~chain_mode:rt.chain_overflow st in
    rt.table <- Some t;
    t

(* --- Algorithm 1: optimized pointer dereference check ------------------- *)

let classify_oob ~write tbl idx _raw =
  if idx <> 0 && Meta_table.low tbl idx = Meta_table.invalid_low then
    Vm.Report.Use_after_free
  else if write then Vm.Report.Oob_write
  else Vm.Report.Oob_read
[@@inline]

(* Algorithm 1 minus its cycle charge: the slow path the jit's inlined
   check falls back to when the tag is 0 or the fused compare fails. *)
let check_deref_untimed rt st ~write ~size ~site ptr =
  let tbl = get_table rt st in
  let idx = L.tag_of ptr in
  if idx = 0 then rt.entry0_hits <- rt.entry0_hits + 1;
  let raw = L.strip ptr in
  let lo = Meta_table.low tbl idx in
  let hi = Meta_table.high tbl idx in
  (* Algorithm 1: OR the two differences; a set sign bit means either the
     pointer is below the low bound (which INVALID forces after free) or
     the access end is above the high bound. *)
  if (raw - lo) lor (hi - (raw + size)) < 0 then begin
    (* the section V.1 extension: the slow path searches the index's
       overflow chain before reporting *)
    match Meta_table.chain_covers tbl idx ~raw ~size with
    | Some links -> Vm.State.tick st (Costs.chain_link * links)
    | None ->
      (* under Recover the access proceeds on the stripped pointer,
         exactly as the uninstrumented program would *)
      Vm.State.report st ~by:name ~addr:raw ~site
        ~detail:(Printf.sprintf "access of %d bytes, entry %d" size idx)
        (classify_oob ~write tbl idx raw)
  end;
  raw

(* The whole check, as the registered intrinsic runs it: the tick comes
   first, before the table's lazy creation, as in the jit's inline
   form. *)
let check_deref rt st ~write ~size ~site ~cost ptr =
  Vm.State.tick st cost;
  check_deref_untimed rt st ~write ~size ~site ptr

(* A range check used by the interceptors: validates [raw, raw+len). *)
let check_range rt st ~write ptr len =
  let tbl = get_table rt st in
  Vm.State.tick st Costs.range_check;
  let idx = L.tag_of ptr in
  let raw = L.strip ptr in
  if len > 0 then begin
    let lo = Meta_table.low tbl idx in
    let hi = Meta_table.high tbl idx in
    if (raw - lo) lor (hi - (raw + len)) < 0 then begin
      match Meta_table.chain_covers tbl idx ~raw ~size:len with
      | Some links -> Vm.State.tick st (Costs.chain_link * links)
      | None ->
        Vm.State.report st ~by:name ~addr:raw
          ~detail:(Printf.sprintf "range of %d bytes, entry %d" len idx)
          (classify_oob ~write tbl idx raw)
    end
  end;
  raw

(* --- allocation family ---------------------------------------------------- *)

let cecsan_malloc rt st size =
  let tbl = get_table rt st in
  Vm.State.tick st Costs.malloc_extra;
  let base = Vm.Heap.malloc st size in
  (* injected OOM: NULL carries no metadata *)
  if base = 0 then 0 else Meta_table.alloc tbl ~base ~size

(* Algorithm 2: pointer deallocation check.  Validates that the pointer
   is the live base of a heap object (catching double/invalid frees),
   invalidates the entry, then frees through the default allocator. *)
let cecsan_free rt st ptr =
  let tbl = get_table rt st in
  Vm.State.tick st Costs.free_extra;
  if ptr = 0 then ()  (* free(NULL) *)
  else begin
    let idx = L.tag_of ptr in
    let raw = L.strip ptr in
    if idx = 0 then
      (* a foreign pointer from uninstrumented code: pass through *)
      Vm.Heap.free st raw
    else begin
      let lo = Meta_table.low tbl idx in
      if lo <> raw then begin
        (* slow path of the section V.1 extension: the object may live in
           this index's overflow chain *)
        if Meta_table.chain_release tbl idx ~raw then begin
          Vm.State.tick st Costs.chain_link;
          Vm.Heap.free st raw
        end
        else if lo = Meta_table.invalid_low then
          (* a recovering run treats the bad free as a no-op *)
          Vm.State.report st ~by:name ~addr:raw Vm.Report.Double_free
            ~detail:"deallocation of a dangling pointer"
        else
          Vm.State.report st ~by:name ~addr:raw Vm.Report.Invalid_free
            ~detail:"pointer is not the base of a live object"
      end
      else begin
        (* freeing a tracked non-heap object through free() *)
        if raw < L.heap_base || raw >= L.heap_limit then
          Vm.State.report st ~by:name ~addr:raw Vm.Report.Invalid_free
            ~detail:"free() of a non-heap object"
        else begin
          Meta_table.release tbl idx;
          Vm.Heap.free st raw
        end
      end
    end
  end

let cecsan_realloc rt st ptr size =
  if ptr = 0 then cecsan_malloc rt st size
  else begin
    let tbl = get_table rt st in
    let idx = L.tag_of ptr in
    let raw = L.strip ptr in
    let disposition =
      if idx = 0 then
        match Vm.Heap.usable_size st raw with
        | Some s -> `Entry s
        | None ->
          Vm.Report.trap ~addr:raw Vm.Report.Heap_corruption
            ~detail:"realloc(): invalid pointer"
      else begin
        let lo = Meta_table.low tbl idx in
        if lo = raw then `Entry (Meta_table.high tbl idx - lo)
        else
          (* the section V.1 slow path: the object may live in this
             index's overflow chain *)
          match Meta_table.chain_find tbl idx ~raw with
          | Some (e, links) when e.Meta_table.c_lo = raw ->
            Vm.State.tick st (Costs.chain_link * links);
            `Chained (e.Meta_table.c_hi - raw)
          | _ ->
            (if lo = Meta_table.invalid_low then
               Vm.State.report st ~by:name ~addr:raw Vm.Report.Double_free
                 ~detail:"realloc() of a dangling pointer"
             else
               Vm.State.report st ~by:name ~addr:raw Vm.Report.Invalid_free
                 ~detail:"realloc() of a non-base pointer");
            (* recovered: the old block is not trustworthy -- serve a
               fresh allocation and leave it alone *)
            `Fresh
      end
    in
    match disposition with
    | `Fresh -> cecsan_malloc rt st size
    | (`Entry old_size | `Chained old_size) as d ->
      let fresh = cecsan_malloc rt st size in
      if fresh = 0 then 0  (* injected OOM: the old block survives *)
      else begin
        let fraw = L.strip fresh in
        Vm.Memory.copy st.Vm.State.mem ~src:raw ~dst:fraw
          ~len:(min old_size size);
        Vm.State.tick st (Vm.Cost.mem_op (min old_size size));
        (match d with
         | `Chained _ -> ignore (Meta_table.chain_release tbl idx ~raw)
         | `Entry _ -> if idx <> 0 then Meta_table.release tbl idx);
        Vm.Heap.free st raw;
        fresh
      end
  end

(* --- stack, globals, sub-objects ----------------------------------------- *)

(* Stack protection: the prologue registers an unsafe stack object and
   returns its tagged address; the epilogue releases the entry if it
   still describes the object. *)
let stack_make rt st addr size =
  Vm.State.tick st Costs.stack_make;
  Meta_table.alloc (get_table rt st) ~base:addr ~size

let stack_release rt st tagged =
  Vm.State.tick st Costs.stack_release;
  let tbl = get_table rt st in
  let idx = L.tag_of tagged in
  (* only release if the entry still describes this object (the program
     may have -- illegally but detectably -- freed it via free()) *)
  if idx <> 0 then begin
    if Meta_table.low tbl idx = L.strip tagged then
      Meta_table.release tbl idx
    else ignore (Meta_table.chain_release tbl idx ~raw:(L.strip tagged))
  end

(* An unsafe global's tagged pointer goes to the GPT, whose loads are
   not themselves checked: all GPT accesses are compiler-generated. *)
let global_make rt st ~slot addr size =
  let tagged = Meta_table.alloc (get_table rt st) ~base:addr ~size in
  gpt_add rt.gpt slot tagged;
  (* the GPT itself is ordinary memory (residency counts) *)
  Vm.Memory.store st.Vm.State.mem (L.aux_base + (slot * 8)) 8 tagged;
  tagged

let gpt_load rt st slot =
  Vm.State.tick st Costs.gpt_load;
  match gpt_find rt.gpt slot with
  | 0 -> Vm.Memory.load st.Vm.State.mem (L.aux_base + (slot * 8)) 8
  | tagged -> tagged

(* Sub-object narrowing (section II.D): validate the field range against
   the parent entry, then mint a temporary narrowed entry. *)
let sub_make rt st ptr fsize =
  let tbl = get_table rt st in
  Vm.State.tick st Costs.sub_make;
  let idx = L.tag_of ptr in
  let raw = L.strip ptr in
  let lo = Meta_table.low tbl idx in
  let hi = Meta_table.high tbl idx in
  if (raw - lo) lor (hi - (raw + fsize)) < 0 then begin
    match Meta_table.chain_covers tbl idx ~raw ~size:fsize with
    | Some links -> Vm.State.tick st (Costs.chain_link * links)
    | None ->
      (* under Recover the narrowed entry is minted anyway so the field
         keeps working like any other pointer *)
      if idx <> 0 && lo = Meta_table.invalid_low then
        Vm.State.report st ~by:name ~addr:raw Vm.Report.Use_after_free
          ~detail:"field access through dangling pointer"
      else
        Vm.State.report st ~by:name ~addr:raw Vm.Report.Oob_read
          ~detail:"field address outside parent object"
  end;
  rt.sub_temporaries <- rt.sub_temporaries + 1;
  Meta_table.alloc tbl ~base:raw ~size:fsize

let sub_release rt st tagged =
  Vm.State.tick st Costs.sub_release;
  stack_release rt st tagged  (* same invalidation discipline *)

(* External-call boundary (section II.E): check then strip. *)
let extcall_strip rt st ptr =
  Vm.State.tick st Costs.extcall;
  if ptr = 0 then 0
  else begin
    let tbl = get_table rt st in
    let idx = L.tag_of ptr in
    let raw = L.strip ptr in
    let lo = Meta_table.low tbl idx in
    if idx <> 0 && lo = Meta_table.invalid_low then
      Vm.State.report st ~by:name ~addr:raw Vm.Report.Use_after_free
        ~detail:"dangling pointer passed to external code";
    Telemetry.record st.Vm.State.telem Telemetry.Strip raw idx;
    raw
  end

(* Re-apply a stripped tag to a returned pointer argument. *)
let retag st ~original result =
  Vm.State.tick st Costs.retag;
  if result = 0 then 0 else L.with_tag result (L.tag_of original)

(* --- interceptors --------------------------------------------------------- *)

(* strlen bounded by the object's high bound: running off the end of an
   unterminated buffer is reported instead of silently scanned. *)
let bounded_strlen rt st ptr ~elem =
  let tbl = get_table rt st in
  let idx = L.tag_of ptr in
  let raw = L.strip ptr in
  let lo = Meta_table.low tbl idx in
  let hi0 = Meta_table.high tbl idx in
  let hi =
    if idx = 0 || (raw >= lo && raw < hi0) then hi0
    else
      (* a chained object's bounds live in the index's overflow chain,
         not the primary entry *)
      match Meta_table.chain_find tbl idx ~raw with
      | Some (e, links) ->
        Vm.State.tick st (Costs.chain_link * links);
        e.Meta_table.c_hi
      | None ->
        if lo = Meta_table.invalid_low then begin
          Vm.State.report st ~by:name ~addr:raw Vm.Report.Use_after_free
            ~detail:"string read through dangling pointer";
          (* recovered: scan on, bounded only by the residency check *)
          L.va_limit
        end
        else hi0
  in
  (* report the overrun once, then keep scanning under [check_mapped]
     like the uninstrumented program would *)
  let rec go ~reported k =
    let a = raw + (k * elem) in
    let reported =
      if (not reported) && a + elem > hi then begin
        Vm.State.report st ~by:name ~addr:a Vm.Report.Oob_read
          ~detail:"unterminated string: scan reached object end";
        true
      end
      else reported
    in
    Vm.State.check_mapped st a elem;
    if Vm.Memory.load st.Vm.State.mem a elem = 0 then k
    else go ~reported (k + 1)
  in
  go ~reported:false 0

(* The interceptor table.  CECSan's engineering-effort claim is coverage:
   including the wide-character functions most sanitizers overlook. *)
let interceptors rt : string -> Vm.Runtime.interceptor option =
  let strip = L.strip in
  let two_range ~dlen ~slen st ~raw args =
    (* dst = arg0 (write dlen), src = arg1 (read slen) *)
    ignore (check_range rt st ~write:true args.(0) dlen);
    ignore (check_range rt st ~write:false args.(1) slen);
    let res = raw (Array.map strip args) in
    retag st ~original:args.(0) res
  in
  function
  | "memcpy" | "memmove" ->
    Some (fun st ~raw args ->
        let n = args.(2) in
        two_range ~dlen:n ~slen:n st ~raw args)
  | "memset" ->
    Some (fun st ~raw args ->
        ignore (check_range rt st ~write:true args.(0) args.(2));
        let res = raw (Array.map strip args) in
        retag st ~original:args.(0) res)
  | "memcmp" ->
    Some (fun st ~raw args ->
        ignore (check_range rt st ~write:false args.(0) args.(2));
        ignore (check_range rt st ~write:false args.(1) args.(2));
        raw (Array.map strip args))
  | "strcpy" ->
    Some (fun st ~raw args ->
        let n = bounded_strlen rt st args.(1) ~elem:1 in
        two_range ~dlen:(n + 1) ~slen:(n + 1) st ~raw args)
  | "strncpy" ->
    Some (fun st ~raw args ->
        let n = args.(2) in
        ignore (check_range rt st ~write:true args.(0) n);
        let res = raw (Array.map strip args) in
        retag st ~original:args.(0) res)
  | "strcat" ->
    Some (fun st ~raw args ->
        let dlen = bounded_strlen rt st args.(0) ~elem:1 in
        let slen = bounded_strlen rt st args.(1) ~elem:1 in
        ignore (check_range rt st ~write:true args.(0) (dlen + slen + 1));
        let res = raw (Array.map strip args) in
        retag st ~original:args.(0) res)
  | "strncat" ->
    Some (fun st ~raw args ->
        let dlen = bounded_strlen rt st args.(0) ~elem:1 in
        let slen = min (bounded_strlen rt st args.(1) ~elem:1) args.(2) in
        ignore (check_range rt st ~write:true args.(0) (dlen + slen + 1));
        let res = raw (Array.map strip args) in
        retag st ~original:args.(0) res)
  | "strlen" ->
    Some (fun st ~raw args ->
        let n = bounded_strlen rt st args.(0) ~elem:1 in
        ignore (raw (Array.map strip args));
        n)
  | "strcmp" | "strncmp" ->
    Some (fun st ~raw args ->
        ignore (bounded_strlen rt st args.(0) ~elem:1);
        ignore (bounded_strlen rt st args.(1) ~elem:1);
        raw (Array.map strip args))
  | "strchr" ->
    Some (fun st ~raw args ->
        ignore (bounded_strlen rt st args.(0) ~elem:1);
        let res = raw (Array.map strip args) in
        retag st ~original:args.(0) res)
  | "strdup" ->
    Some (fun st ~raw:_ args ->
        let n = bounded_strlen rt st args.(0) ~elem:1 in
        let p = cecsan_malloc rt st (n + 1) in
        Vm.Memory.copy st.Vm.State.mem ~src:(strip args.(0))
          ~dst:(strip p) ~len:(n + 1);
        Vm.State.tick st (Vm.Cost.str_op n);
        p)
  | "atoi" ->
    Some (fun st ~raw args ->
        ignore (bounded_strlen rt st args.(0) ~elem:1);
        raw (Array.map strip args))
  (* the wide-character family: the checks "previously overlooked by most
     sanitizers" that let CECSan catch more of CWE122 *)
  | "wcslen" ->
    Some (fun st ~raw args ->
        let n = bounded_strlen rt st args.(0) ~elem:4 in
        ignore (raw (Array.map strip args));
        n)
  | "wcscpy" ->
    Some (fun st ~raw args ->
        let n = bounded_strlen rt st args.(1) ~elem:4 in
        two_range ~dlen:((n + 1) * 4) ~slen:((n + 1) * 4) st ~raw args)
  | "wcsncpy" ->
    Some (fun st ~raw args ->
        let n = args.(2) in
        ignore (check_range rt st ~write:true args.(0) (n * 4));
        let res = raw (Array.map strip args) in
        retag st ~original:args.(0) res)
  | "wcscat" ->
    Some (fun st ~raw args ->
        let dlen = bounded_strlen rt st args.(0) ~elem:4 in
        let slen = bounded_strlen rt st args.(1) ~elem:4 in
        ignore
          (check_range rt st ~write:true args.(0) ((dlen + slen + 1) * 4));
        let res = raw (Array.map strip args) in
        retag st ~original:args.(0) res)
  | "wcscmp" ->
    Some (fun st ~raw args ->
        ignore (bounded_strlen rt st args.(0) ~elem:4);
        ignore (bounded_strlen rt st args.(1) ~elem:4);
        raw (Array.map strip args))
  | "puts" ->
    Some (fun st ~raw args ->
        ignore (bounded_strlen rt st args.(0) ~elem:1);
        raw (Array.map strip args))
  | "printf" ->
    Some (fun st ~raw args ->
        (* check and strip the format and every %s argument *)
        ignore (bounded_strlen rt st args.(0) ~elem:1);
        let fmt = Vm.Memory.read_string st.Vm.State.mem (strip args.(0)) in
        let stripped = Array.copy args in
        stripped.(0) <- strip args.(0);
        let argi = ref 1 in
        String.iteri
          (fun i c ->
             if c = '%' && i + 1 < String.length fmt then begin
               match fmt.[i + 1] with
               | 's' ->
                 if !argi < Array.length stripped then begin
                   ignore (bounded_strlen rt st stripped.(!argi) ~elem:1);
                   stripped.(!argi) <- strip stripped.(!argi)
                 end;
                 incr argi
               | '%' -> ()
               | _ -> incr argi
             end)
          fmt;
        raw stripped)
  | "fgets" ->
    Some (fun st ~raw args ->
        ignore (check_range rt st ~write:true args.(0) args.(1));
        let res = raw (Array.map strip args) in
        retag st ~original:args.(0) res)
  | "recv" ->
    Some (fun st ~raw args ->
        ignore (check_range rt st ~write:true args.(1) args.(2));
        raw (Array.map strip args))
  | _ -> None

(* --- assembling the Vm.Runtime ------------------------------------------- *)

let intrinsic_table rt : (string * Vm.Runtime.intrinsic) list =
  [
    (* args.(last) is always the site id appended by the machine *)
    "__cecsan_malloc", (fun st a -> cecsan_malloc rt st a.(0));
    "__cecsan_free", (fun st a -> cecsan_free rt st a.(0); 0);
    "__cecsan_calloc",
    (fun st a ->
       let n = a.(0) * a.(1) in
       let p = cecsan_malloc rt st n in
       Vm.Memory.fill st.Vm.State.mem ~dst:(L.strip p) ~len:n 0;
       Vm.State.tick st (Vm.Cost.mem_op n);
       p);
    "__cecsan_realloc", (fun st a -> cecsan_realloc rt st a.(0) a.(1));
    "__cecsan_stack_make", (fun st a -> stack_make rt st a.(0) a.(1));
    "__cecsan_stack_release", (fun st a -> stack_release rt st a.(0); 0);
    "__cecsan_global_make",
    (fun st a -> global_make rt st ~slot:a.(2) a.(0) a.(1));
    "__cecsan_gpt_load", (fun st a -> gpt_load rt st a.(0));
    "__cecsan_sub_make", (fun st a -> sub_make rt st a.(0) a.(1));
    "__cecsan_sub_release", (fun st a -> sub_release rt st a.(0); 0);
    "__cecsan_extcall_strip", (fun st a -> extcall_strip rt st a.(0));
  ]

(* Algorithm 1's four intrinsics, registered through
   [Vm.Runtime.register_check] so the jit can inline them.  The
   spatial-only downgrades (DESIGN.md 16) are detection-identical to
   the fused check -- same Algorithm 1 over the same entry -- at the
   lower cost the statically-certified temporal half buys. *)
let deref_checks =
  [ ("__cecsan_check_load", false, Costs.check);
    ("__cecsan_check_store", true, Costs.check);
    ("__cecsan_check_load_spatial", false, Costs.check_spatial);
    ("__cecsan_check_store_spatial", true, Costs.check_spatial) ]

let create ?(chain_overflow = false) () : t * Vm.Runtime.t =
  let rt = { table = None; gpt = gpt_create (); reports_sub_object = 0;
             chain_overflow; entry0_hits = 0; sub_temporaries = 0 } in
  (* no custom allocator (the point), and no TBI: x86-64 checks strip
     explicitly *)
  let vrt =
    { (Vm.Runtime.plain name) with
      intercept = interceptors rt;
      at_exit =
        (fun st ->
           (* publish the table's degradation telemetry so the driver and
              [--stats] can see coverage lost to exhaustion/chaining *)
           if rt.entry0_hits > 0 then
             Vm.State.set_stat st "entry0_hits" rt.entry0_hits;
           if rt.sub_temporaries > 0 then
             Vm.State.set_stat st "sub_temporaries" rt.sub_temporaries;
           match rt.table with
           | None -> ()
           | Some t ->
             Vm.State.set_stat st "meta_live" t.Meta_table.live;
             Vm.State.set_stat st "meta_recycled" t.Meta_table.recycled;
             Vm.State.set_stat st "meta_peak_live" t.Meta_table.peak_live;
             Vm.State.set_stat st "meta_total_allocated"
               t.Meta_table.total_allocated;
             Vm.State.set_stat st "exhausted_fallbacks"
               t.Meta_table.exhausted_fallbacks;
             Vm.State.set_stat st "chained" t.Meta_table.chain_total;
             Vm.State.set_stat st "chain_live" t.Meta_table.chained;
             Vm.State.set_stat st "chain_lookups" t.Meta_table.chain_lookups;
             Vm.State.set_stat st "chain_links_walked"
               t.Meta_table.chain_links_walked) }
  in
  List.iter (fun (n, f) -> Vm.Runtime.register vrt n f) (intrinsic_table rt);
  List.iter
    (fun (name, write, cost) ->
       Vm.Runtime.register_check vrt ~name ~cost (fun st ptr size site ->
           check_deref_untimed rt st ~write ~size ~site ptr))
    deref_checks;
  (rt, vrt)
