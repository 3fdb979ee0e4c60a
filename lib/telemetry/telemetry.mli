(** Always-on, near-zero-overhead runtime telemetry.

    One {!t} lives on every [Vm.State.t].  Per-check-site counters are
    keyed by the stable site ids minted at instrumentation time
    ([Tir.Ir.fresh_site]); named counters merge by addition, gauges
    (high-water marks) by max; a bounded event ring records the most
    recent alloc / free / check-fail / strip events with a drop counter
    once full.  Snapshots serialize to deterministic JSON (sorted keys,
    integers only) so equal telemetry is byte-identical JSON. *)

type event_kind = Alloc | Free | Check_fail | Strip

type event = { ev_kind : event_kind; ev_a : int; ev_b : int }
(** Kind-specific payloads: [Alloc (addr, size)], [Free (addr, 0)],
    [Check_fail (site, addr)], [Strip (addr, tag)]. *)

val ring_capacity : int
(** Compile-time capacity of the event ring. *)

type t

type live = t
(** Alias usable inside {!Snapshot}, where [t] is shadowed. *)

val create : unit -> t

(** {1 Per-site counters}

    The conservation law enforced by the test suite, per site:
    [executed(O0) = executed(O2) + elided(O2) + covered(O2)]. *)

val bump_executed : t -> int -> unit
val bump_elided : t -> int -> unit
val bump_covered : t -> int -> unit

(** {1 Named gauges} *)

val set_gauge : t -> string -> int -> unit

(** {1 Event ring} *)

val record : t -> event_kind -> int -> int -> unit

module Snapshot : sig
  type site_row = {
    s_site : int;
    s_executed : int;
    s_elided : int;
    s_covered : int;
  }

  type t = {
    sites : site_row list;  (** sorted by site id; all-zero rows omitted *)
    counters : (string * int) list;
        (** sorted by key; empty from {!capture}, filled only by {!merge} *)
    gauges : (string * int) list;  (** sorted by key *)
    events : event list;  (** oldest first *)
    dropped : int;
  }

  val empty : t

  val capture : live -> t

  val merge : t -> t -> t
  (** [merge a b] with [a] happened-before [b]: sites/counters add,
      gauges max, event streams concatenate with overflow past
      {!ring_capacity} counted as dropped. *)

  val sites_full : sites:int list -> t -> site_row list
  (** The snapshot's site rows re-inflated against the full
      instrumented-site universe [sites] (from [Tir.Ir.site_origins]):
      one row per listed site, all-zero where the snapshot omitted it,
      plus any nonzero rows outside the list; sorted by site id.  The
      pinned JSON is unchanged — this is the coverage-side view that
      keeps "instrumented but unreached" distinguishable from "not
      instrumented". *)

  val to_value : t -> Json.t
  (** The snapshot as one JSON object with five keys in a fixed order:
      [sites], [counters], [gauges], [dropped], [events]. *)

  val to_json : t -> string
  (** {!to_value} in the [Compact] layout: equal snapshots produce
      byte-identical strings. *)

  val of_json : string -> t option
  (** Strict inverse of {!to_json} (accepts exactly the writer's five
      keys in its order): [of_json (to_json s) = Some s].  Used by
      campaign checkpoints to restore a snapshot across a restart.
      Never raises. *)

  val report :
    ?top:int -> label:(int -> string option) -> Format.formatter -> t -> unit
  (** Human report of the [top] (default 10) hottest check sites;
      [label] maps site ids to origin strings from
      [Tir.Ir.site_origins]. *)

  val delta_summary : ?limit:int -> t -> t -> string
  (** Compact "what moved between these two snapshots" line for fuzz
      repro reports. *)
end
