(** Static analyses shared by the optimizer and the sanitizers: stack
    slot safety (the paper's safe/unsafe stack object distinction),
    global safety, register-use maps, and the intrinsic role table
    through which the optimizer, the verifier and the abstract
    interpreter read a sanitizer (DESIGN.md section 16). *)

module Int_set : Set.S with type elt = int

val blocks_using : Ir.func -> (int, Int_set.t) Hashtbl.t
(** For each register, the set of block ids where it appears as a use
    (needed by sub-object narrowing to prove block-locality). *)

(** {1 Intrinsic roles} *)

(** How a modeled allocator derives its byte size from its argument
    list: [Sarg k] reads argument [k], [Sprod (i, j)] multiplies
    arguments [i] and [j] (calloc). Non-immediate arguments or
    overflowing products yield an unknown size. *)
type size_rule = Sarg of int | Sprod of int * int

(** What one runtime entry point does to sanitizer metadata.  A hazard
    (a call that can change metadata, so every fact an earlier check
    proved dies at it) is an [Alloc], [Realloc], [Free], [Make],
    [Global_make] or [Opaque]. *)
type role =
  | Alloc of size_rule  (** returns a fresh object *)
  | Realloc of size_rule  (** frees argument 0's object, returns a fresh one *)
  | Free  (** releases the object of argument 0 *)
  | Make  (** retags argument 0's object and returns it (stack tagging) *)
  | Strip
      (** returns argument 0 untagged; pointer arguments of external
          calls must come from one *)
  | Gpt_load
      (** returns the pointer a [Global_make] site registered under its
          immediate argument *)
  | Global_make  (** registers global [Glob g; size; Imm index] *)
  | Opaque  (** changes metadata; its result is unknown *)
  | Neutral  (** changes no metadata; its result is unknown *)

(** What a name means to a spec: the check of a store ([true]) or load,
    its spatial-only variant, a role, a telemetry marker
    ({!Ir.is_telemetry_marker}) or nothing. *)
type meaning =
  | Check of bool | Spatial of bool | Role of role | Marker | Undeclared

(** Names with one role each, and the table that looks them up. *)
type roles = private {
  declared : (string * role) list;
  table : (string, meaning) Hashtbl.t;
}

val roles : (string * role) list -> roles
(** Builds the table once; raises [Invalid_argument] when a name has
    two roles. *)

(** One sanitizer, as [Sanitizer.Checkopt], {!Verify} and {!Absint}
    see it. *)
type spec = {
  check_load : string;  (** checks a load of [args = [p; Imm size]] *)
  check_store : string;  (** checks a store, likewise *)
  spatial : bool;
      (** each check [c] has a spatial-only variant [c ^ "_spatial"]: a
          check of the same access without the temporal half, the
          target of certified downgrades *)
  intrinsics : roles;
      (** every other intrinsic the tool's pass emits, each with exactly
          one role.  A name with no role, other than a telemetry
          marker, is a hazard, and worst case for {!Absint}. *)
  calls : roles;
      (** ordinary callees {!Absint} models as [Alloc], [Realloc] or
          [Free] (an intercepting allocator); other roles are ignored *)
  produces_addr : bool;  (** a check's destination is the stripped address *)
  strip_mask : int;
      (** [p land strip_mask] strips a tag and keeps the object *)
  may_hoist_stores : bool;  (** store checks may leave their block *)
  slots : bool;
      (** [Islot] results point at the declared slot (not so when the
          tool relocates slot data) *)
  certified : bool;
      (** checks may be elided or downgraded to their spatial variant
          with a {!Witness.t}, which {!Verify} replays against an
          {!Absint} certificate; [false] rejects every witness *)
}

val meaning : spec -> string -> meaning
(** Two string compares and one table lookup, no list scan. *)

val is_hazard : meaning -> bool
(** Whether an intrinsic of that meaning can change metadata: an
    undeclared one can, a marker cannot. *)

val pure_callees : Ir.modul -> spec -> string -> bool
(** Memoized interprocedural metadata purity: [pure name] is true when
    calling [name] cannot touch sanitizer metadata (no hazard intrinsic
    reachable, only metadata-neutral builtins called).  External stubs,
    the allocator family and recursive cycles are conservatively
    impure.  Shared by Checkopt and Verify so both reason from the same
    closure. *)

val run : Ir.modul -> unit
(** Marks [s_unsafe] on every slot of a defined function whose address
    escapes or is variably indexed, and [g_unsafe] on arrays/structs and
    on globals whose address is used beyond direct scalar access. *)
