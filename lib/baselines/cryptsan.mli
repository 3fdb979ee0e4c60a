(** CryptSan (SAC 2023): PA-based per-object signatures with
    monotonically minted identifiers (no recycling).  See [Pa_common]. *)

val sanitizer : unit -> Sanitizer.Spec.t
