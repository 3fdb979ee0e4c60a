(** Shared machinery for the ARM-Pointer-Authentication baselines
    (PACMem, CryptSan): a metadata identifier sealed into the pointer's
    upper bits, object-granularity bounds + liveness authenticated at
    every dereference.  Structural blind spots (shared, per the paper's
    Table II): no sub-object narrowing, no wide-character interceptors.

    Instrumentation is [Cecsan.Instrument.instrument] with
    [Cecsan.Config.no_subobject] in the policy's [p_prefix] namespace;
    this module is the runtime those intrinsics call. *)

type policy = {
  p_name : string;
  p_prefix : string;   (** intrinsic namespace *)
  p_tag_bits : int;
  p_reuse : bool;      (** recycle retired ids (PACMem yes, CryptSan no) *)
  p_check_cost : int;
}

val sanitizer : policy -> Sanitizer.Spec.t
