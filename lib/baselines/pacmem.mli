(** PACMem (CCS 2022): PA-sealed metadata identifiers, object
    granularity, free-list id recycling.  See [Pa_common]. *)

val sanitizer : unit -> Sanitizer.Spec.t
