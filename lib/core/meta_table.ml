(* The compact, reusable metadata table -- the core data structure of the
   paper (section II.B, Figure 2).

   The table is a linear array of 24-byte entries (low bound, high bound,
   nextID) living in *simulated memory* at [Layout46.meta_base] (layout:
   [Layout46.meta_entry]), exactly like the mmap'd table of the real
   runtime: entries only become resident when touched, which is why the
   paper's memory overhead is a few percent even though the table
   reserves 2^17 * 24 bytes.

   Free-list encoding (Figure 2): [nextID] of a freed entry holds the
   *offset* from the entry to the next allocation frontier; the global
   index GMI points at the most recently freed entry, so freed slots are
   reused LIFO:

     allocate:  i = GMI;  GMI = i + 1 + nextID[i];  nextID[i] = 0
     free(k):   nextID[k] = GMI - k - 1;  lo[k] = INVALID;  hi[k] = 0;
                GMI = k

   Entry 0 is reserved for untagged/foreign pointers: (0, VA_MAX), so
   every check against it passes -- uninstrumented code's pointers are
   usable as-is (section II.E). *)

let invalid_low = Vm.Layout46.va_limit  (* "a very high value" *)

(* The section V.1 overflow extension: once the table is exhausted,
   several objects can share one index; the extra objects live in
   per-index chains searched after the primary entry misses. *)
type chain_entry = { c_lo : int; c_hi : int }

type t = {
  st : Vm.State.t;
  mutable gmi : int;
  mutable live : int;               (* currently live entries *)
  mutable peak_live : int;
  mutable total_allocated : int;
  mutable recycled : int;            (* entries re-served off the free list *)
  mutable exhausted_fallbacks : int; (* allocations served untagged *)
  mutable chain_mode : bool;         (* section V.1 extension enabled *)
  chains : (int, chain_entry list ref) Hashtbl.t;
  mutable chained : int;             (* live chained objects *)
  mutable chain_total : int;         (* objects ever chained *)
  mutable chain_cursor : int;        (* round-robin shared index *)
  mutable chain_lookups : int;       (* slow-path chain searches *)
  mutable chain_links_walked : int;  (* total links traversed *)
}

(* The table size this run honors: the architectural 2^17 unless the
   fault injector shrank it (never below entry 0 plus one real slot). *)
let effective_limit t =
  max 2
    (Vm.Fault.effective_table_limit t.st.Vm.State.fault
       ~default:Vm.Layout46.tag_limit)

(* the entry layout is the VM's ([Layout46.meta_entry]): the jit's
   inlined Algorithm 1 reads the same words *)
let entry_addr = Vm.Layout46.meta_entry

let low t i = Vm.Memory.load t.st.Vm.State.mem (entry_addr i) 8
let high t i = Vm.Memory.load t.st.Vm.State.mem (entry_addr i + 8) 8
let next_id t i = Vm.Memory.load t.st.Vm.State.mem (entry_addr i + 16) 8

let set_low t i v = Vm.Memory.store t.st.Vm.State.mem (entry_addr i) 8 v
let set_high t i v = Vm.Memory.store t.st.Vm.State.mem (entry_addr i + 8) 8 v
let set_next_id t i v =
  Vm.Memory.store t.st.Vm.State.mem (entry_addr i + 16) 8 v

(* The constructor the runtime library registers: initializes entry 0 and
   GMI (paper section III: "the constructor... allocates and initializes
   a metadata table through mmap before program starts"). *)
let create ?(chain_mode = false) (st : Vm.State.t) : t =
  let t = { st; gmi = 1; live = 0; peak_live = 0; total_allocated = 0;
            recycled = 0; exhausted_fallbacks = 0; chain_mode;
            chains = Hashtbl.create 16; chained = 0; chain_total = 0;
            chain_cursor = 1;
            chain_lookups = 0; chain_links_walked = 0 } in
  set_low t 0 0;
  set_high t 0 Vm.Layout46.va_limit;
  set_next_id t 0 0;
  t

(* Creates an entry for object [base, base+size) and returns the tagged
   pointer.  On table exhaustion, falls back to the reserved entry 0
   (untagged, unprotected) -- the degradation discussed in section V.1. *)
let alloc t ~base ~size : int =
  let limit = effective_limit t in
  if t.gmi >= limit then begin
    if t.chain_mode then begin
      (* share an index round-robin; the object's bounds live in the
         index's chain *)
      let i = 1 + (t.chain_cursor mod (limit - 1)) in
      t.chain_cursor <- t.chain_cursor + 1;
      let l =
        match Hashtbl.find_opt t.chains i with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.replace t.chains i l;
          l
      in
      l := { c_lo = base; c_hi = base + size } :: !l;
      t.chained <- t.chained + 1;
      t.chain_total <- t.chain_total + 1;
      t.total_allocated <- t.total_allocated + 1;
      Vm.Layout46.with_tag base i
    end
    else begin
      (* the entry-0 degradation still serves an allocation: count it,
         or the stats under-count exactly when degradation kicks in *)
      t.exhausted_fallbacks <- t.exhausted_fallbacks + 1;
      t.total_allocated <- t.total_allocated + 1;
      base
    end
  end
  else begin
    let i = t.gmi in
    let off = next_id t i in
    (* a released entry carries [invalid_low]; fresh table memory is 0 --
       so this probe (on a page [next_id] just touched) detects free-list
       recycling with no residency cost *)
    if low t i = invalid_low then t.recycled <- t.recycled + 1;
    set_low t i base;
    set_high t i (base + size);
    set_next_id t i 0;
    t.gmi <- i + 1 + off;
    t.live <- t.live + 1;
    if t.live > t.peak_live then t.peak_live <- t.live;
    t.total_allocated <- t.total_allocated + 1;
    Vm.Layout46.with_tag base i
  end

(* Does some chain element of index [i] cover [raw, raw+size)?  Returns
   the number of links walked (the extension's runtime cost) or None. *)
let chain_covers t i ~raw ~size : int option =
  if not t.chain_mode then None
  else
    match Hashtbl.find_opt t.chains i with
    | None -> None
    | Some l ->
      t.chain_lookups <- t.chain_lookups + 1;
      let rec go k = function
        | [] ->
          t.chain_links_walked <- t.chain_links_walked + k - 1;
          None
        | e :: rest ->
          if raw >= e.c_lo && raw + size <= e.c_hi then begin
            t.chain_links_walked <- t.chain_links_walked + k;
            Some k
          end
          else go (k + 1) rest
      in
      go 1 !l

(* The chain element of index [i] containing [raw], plus the links
   walked to reach it (used by interceptors/realloc, which need the
   element's own bounds rather than a yes/no cover answer). *)
let chain_find t i ~raw : (chain_entry * int) option =
  if not t.chain_mode then None
  else
    match Hashtbl.find_opt t.chains i with
    | None -> None
    | Some l ->
      t.chain_lookups <- t.chain_lookups + 1;
      let rec go k = function
        | [] ->
          t.chain_links_walked <- t.chain_links_walked + k - 1;
          None
        | e :: rest ->
          if raw >= e.c_lo && raw < e.c_hi then begin
            t.chain_links_walked <- t.chain_links_walked + k;
            Some (e, k)
          end
          else go (k + 1) rest
      in
      go 1 !l

(* Removes the chain element of index [i] whose base is [raw]; true on
   success (used by free). *)
let chain_release t i ~raw : bool =
  if not t.chain_mode then false
  else
    match Hashtbl.find_opt t.chains i with
    | None -> false
    | Some l ->
      t.chain_lookups <- t.chain_lookups + 1;
      let found = ref false in
      let walked = ref 0 in
      l :=
        List.filter
          (fun e ->
             if not !found then incr walked;
             if (not !found) && e.c_lo = raw then begin
               found := true;
               false
             end
             else true)
          !l;
      t.chain_links_walked <- t.chain_links_walked + !walked;
      if !found then begin
        t.chained <- t.chained - 1;
        (* a drained chain must not pin its (empty) list forever *)
        if !l = [] then Hashtbl.remove t.chains i
      end;
      !found

(* Invalidates entry [i] and pushes it on the free list. *)
let release t i =
  if i <> 0 then begin
    set_next_id t i (t.gmi - i - 1);
    set_low t i invalid_low;
    set_high t i 0;
    t.gmi <- i;
    t.live <- t.live - 1
  end
