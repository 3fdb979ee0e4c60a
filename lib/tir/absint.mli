(** Tir.Absint: flow-sensitive abstract interpretation for certified
    check elision (DESIGN.md section 16).

    Three cooperating domains over a sanitizer-instrumented function:

    - {b value ranges}: integer registers carry intervals, pointer
      registers carry an abstract object plus a byte-offset interval;
    - {b points-to / escape}: every allocation site (stack slot,
      allocator intrinsic, modeled allocator call, global) becomes an
      abstract object; a flow-insensitive closure decides which objects
      each register may derive from and which objects escape;
    - {b temporal liveness}: the flow-sensitive freed-set tracks which
      objects a modeled free may already have released at each point.

    The sanitizer under analysis is described by a {!model} -- which
    intrinsics check, allocate, free, alias or are metadata-neutral --
    so the same interpreter serves any tool that provides one.
    [Sanitizer.Checkopt] uses the results to elide or downgrade checks
    (each with a {!Witness.t}) and attaches the fixpoint as a {!cert};
    [Tir.Verify] checks that certificate against the post-optimization
    IR with {!check_cert} and replays every witness against the states
    it yields. *)

module Int_set : Set.S with type elt = int

(** How a modeled allocator derives its byte size from its argument
    list: [Sarg k] reads argument [k], [Sprod (i, j)] multiplies
    arguments [i] and [j] (calloc). Non-immediate arguments or
    overflowing products yield an unknown size. *)
type size_rule = Sarg of int | Sprod of int * int

(** Metadata semantics of one sanitizer's intrinsics and runtime
    calls.  Any intrinsic not classified here is treated as worst-case:
    its arguments escape and every escaped object may be freed.  An
    intrinsic named in several lists takes the first role in the order
    check, alloc, free, alias, gpt-load, opaque -- except that an alloc
    also named in [am_frees] keeps its free leg (realloc). *)
type model = {
  am_checks : (string * string option) list;
      (** check intrinsic name -> its spatial-only variant, if the tool
          has one ([None] = not downgradable). Spatial variants must
          themselves appear as keys mapping to [None]. *)
  am_check_alias : bool;
      (** checks return the (possibly stripped) checked pointer in
          their destination register *)
  am_allocs : (string * size_rule) list;
      (** intrinsics whose destination is a fresh object *)
  am_frees : string list;
      (** intrinsics that free the object of argument 0 (a name may
          appear in both [am_allocs] and [am_frees]: realloc) *)
  am_aliases : string list;
      (** intrinsics whose destination aliases argument 0 *)
  am_opaque : string list;
      (** metadata-neutral intrinsics; destination becomes unknown *)
  am_call_allocs : (string * size_rule) list;
      (** ordinary calls (builtin allocators) returning fresh objects *)
  am_call_frees : string list;
      (** ordinary calls freeing the object of argument 0 *)
  am_gpt_load : string option;
      (** intrinsic loading a tagged global pointer from the GPT; its
          immediate argument indexes the table built by
          [am_global_make] sites *)
  am_global_make : string option;
      (** intrinsic registering global [Glob g; size; Imm index] *)
  am_strip_mask : int option;
      (** [p land mask] preserves the pointed-to object *)
  am_slots : bool;
      (** [Islot] results point at the declared slot ([false] when the
          tool relocates slot data, e.g. redzone-padded slots) *)
}

(** Abstract value of a register. *)
type aval =
  | Vtop  (** unknown *)
  | Vint of int * int  (** integer in [lo, hi] *)
  | Vptr of { obj : int; lo : int; hi : int }
      (** pointer into object [obj] at byte offset in [lo, hi] *)

(** An abstract object.  [o_desc] is a stable descriptor (stable across
    Checkopt's own rewrites, so optimizer and verifier agree):
    "slot:<name>:<id>", "<intrinsic>#<site>", "call:<callee>:b<id>:<n>"
    or "global:<name>".  [o_size] is -1 when unknown. *)
type obj = {
  o_id : int;
  o_desc : string;
  o_size : int;
  mutable o_escapes : bool;
}

(** The abstract state at one program point.  Dense: [s_regs.(k)] is
    the value of register [s_base + k], [Vtop] stored explicitly, over
    the range of registers the function defines (lowest to highest,
    negative or over-range ones of malformed IR included).  Any register
    outside the range reads as [Vtop] through {!regval}.  The states of
    one function share one layout, so joins and the order test are
    index scans. *)
type state = {
  s_base : int;                 (** register held in [s_regs.(0)] *)
  s_regs : aval array;
  mutable s_freed : Int_set.t;  (** objects a free may have released *)
}

type sites
(** A summary's site states, derived on demand (see {!site_state}). *)

type summary = {
  su_func : string;
  su_objs : obj array;
  su_block_in : state option array;
      (** fixpoint state at each block entry; [None] = unreachable *)
  su_sites : sites;
}

type ctx

val make_ctx : model -> pure:(string -> bool) -> Ir.modul -> ctx
(** Whole-program context: scans the module for [am_global_make] sites
    (GPT index -> global), global sizes and defined functions, and
    classifies the model's intrinsic names once.  [pure] is the
    metadata-purity closure from {!Analysis.pure_callees}. *)

val analyze : ?fuel:Fuel.t -> ctx -> Ir.func -> summary
(** Run all three domains to fixpoint (widening once a block's entry
    state has grown more than 3 times, so termination is
    unconditional).  Each sweep re-transfers only the blocks whose
    entry state changed since their last transfer.  No pass follows
    the fixpoint: site states are derived when queried. *)

(** The certificate behind a function's witnesses: [analyze]'s block
    entry states ([su_block_in]), claimed to be a post-fixpoint. *)
type cert = { c_func : string; c_block_in : state option array }

type Ir.cert += Fixpoint of cert  (** the {!Ir.modul} slot's entry *)

val certificate : summary -> Ir.cert
(** The summary's block entry states as a certificate for its
    function. *)

val check_cert :
  ?fuel:Fuel.t -> ctx -> Ir.func -> cert -> (summary, string) result
(** Checks a certificate instead of computing a fixpoint.  Re-runs
    object discovery and the derivation/escape closure (so object
    numbering is its own), then makes one reverse-postorder pass with
    the transfer function {!analyze} iterates, requiring that the block
    count match, that every claimed state be laid out for the registers
    the function defines, that the entry state contain the initial
    state, and that every edge's exit state be contained in the
    successor's claimed entry state (a reachable block claimed [None]
    fails).  That pass records nothing: on success the summary derives
    site states from the claimed entry states on demand, as
    {!analyze}'s does.  [fuel] burns the closure's sweeps and one
    pass. *)

val site_state : summary -> int -> state option
(** The state immediately before intrinsic site [site] in a reachable
    block ([None] if there is none), derived on demand: the site's
    block is transferred from its [su_block_in] state, at most once
    per summary, recording the state before each of its sites.  A
    site id that occurs more than once reads its last occurrence in
    reverse postorder.  The transfer runs over the code the summary
    was computed from, so rewriting the function between queries is
    safe. *)

val sites : summary -> int list
(** Every site id {!site_state} answers for, ascending. *)

val facts : summary -> int
(** Check sites whose pointer argument carries a [Vptr] fact, counted
    on first use over the blocks that hold a check. *)

val regval : state -> int -> aval

val iter_regs : (int -> aval -> unit) -> state -> unit
(** The registers whose value is not [Vtop], in ascending order. *)

val in_bounds : lo:int -> hi:int -> size:int -> objsize:int -> bool
(** Overflow-guarded: every access of [size] bytes at an offset in
    [lo, hi] stays inside an object of [objsize] bytes.  The single
    bounds predicate shared by Checkopt's elision and Verify's witness
    replay. *)

val pp_summary : Format.formatter -> summary -> unit
(** Human-readable dump backing [cecsan_cli --dump-absint]. *)
