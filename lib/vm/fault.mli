(** Deterministic, seedable fault injection, threaded through [State.t]
    so allocators, the metadata table and the interpreter all consult
    the same budgets.  Inert (every probe answers "no fault") unless
    faults were requested. *)

type spec =
  | Oom of int      (** malloc returns NULL after N allocations *)
  | Table of int    (** shrink the effective metadata table to N entries *)
  | Tagflip of int  (** flip a tag bit on every N-th tagged load *)
  | Crash of int    (** raise {!Injected_crash} after N allocations *)
  | Fuel of int     (** give the pipeline a step budget of N *)

exception Injected_crash of { after : int }
(** A hard task death injected by [Crash n]; escapes [Machine.run] so
    the supervision layer (not the VM) has to deal with it. *)

type t = {
  mutable oom_after : int option;
  mutable table_limit : int option;
  mutable tagflip_every : int option;
  mutable crash_after : int option;
  mutable fuel_budget : int option;
  mutable mallocs_seen : int;
  mutable tagged_loads_seen : int;
  mutable oom_injected : int;       (** telemetry: NULLs actually served *)
  mutable tagflips_injected : int;  (** telemetry: bits actually flipped *)
  mutable rng : int;
}

val none : unit -> t
(** An inert injector (the default in [State.create]). *)

val of_specs : ?seed:int -> spec list -> t

val clone : t -> t
(** Same configuration and seed, zeroed budget/telemetry counters.
    [State.create] clones its injector so runs sharing one [t] never
    race on or accumulate each other's counters. *)

val parse : string -> (spec, string) result
(** Parses the CLI surface: ["oom:N"], ["table:N"], ["tagflip:N"],
    ["crash:N"], ["fuel:N"]. *)

val spec_to_string : spec -> string

val should_oom : t -> bool
(** Consulted once per allocation; true means serve NULL.  Also hosts
    the [Crash n] probe: raises {!Injected_crash} once [n] allocations
    have been seen. *)

val effective_table_limit : t -> default:int -> int
(** The metadata-table size this run should honor. *)

val corrupt_load : t -> int -> int
(** Passes a pointer-sized loaded value through the corruption model. *)
