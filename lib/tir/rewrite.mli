(** Instrumentation building blocks shared by all sanitizer passes.  A
    pass passes its own intrinsic names; the blocks decide how the calls
    are spliced into the IR, so every tool does that the same way. *)

val map_instrs : (Ir.instr -> Ir.instr list) -> Ir.func -> unit
(** Replaces every instruction by the returned list, in order. *)

val insert_prologue : Ir.func -> Ir.instr list -> unit
(** Prepends to the entry block. *)

val insert_main_prologue : Ir.modul -> Ir.instr list -> unit
(** Prepends to [main]'s entry block; no-op without a [main]. *)

val insert_before_rets : Ir.func -> (unit -> Ir.instr list) -> unit
(** Appends instructions before every return; the thunk runs once per
    returning block so it can mint fresh registers per site. *)

val append_block : Ir.func -> Ir.block

val insert_checks :
  Ir.modul -> load:string -> store:string -> returns_addr:bool ->
  checked:(bool -> bool) -> Ir.func -> unit
(** Inserts [load(addr, size)] / [store(addr, size)] before every access
    whose [safe] flag satisfies [checked].  With [returns_addr] the check
    defines a fresh register holding the address the access then uses. *)

val global_slots : Ir.modul -> (Ir.global * int) list
(** The unsafe globals with their table slots, in declaration order. *)

val load_globals :
  Ir.modul -> load:string -> (Ir.global * int) list -> Ir.func -> unit
(** Rewrites every operand naming a global of [slots] to a register
    defined by [load(slot)] just before its instruction, and folds a
    branch on such a global's address (always true) to [1]. *)

val make_globals : Ir.modul -> make:string -> (Ir.global * int) list -> unit
(** Prepends [make(&g, size, slot)] for each slot to [main]'s entry. *)

val tag_stack :
  Ir.modul -> make:string -> release:string ->
  release_args:(Ir.opnd -> Ir.slot -> Ir.opnd list) -> Ir.func -> unit
(** For each unsafe stack slot, [make(&slot, size)] in the prologue
    defines the tagged pointer that every [Islot] of it now yields, and
    [release(release_args tagged slot)] runs before every return. *)
