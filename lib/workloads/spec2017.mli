(** SPEC CPU2017-like kernels (Table V).  The signature to reproduce is
    ASan's average-vs-geomean memory divergence, driven by tiny-live-set
    churn benchmarks; CECSan stays in low single digits. *)

type t = Spec2006.t = {
  w_name : string;
  w_source : string;
  w_expected : int;
}

val xalancbmk_s : t

val all : t list
