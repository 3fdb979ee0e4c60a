(** The Table II evaluation harness: every case's bad and good version
    under every sanitizer, with per-tool evaluated subsets.

    Detection means the sanitizer REPORTED; a crash without a report
    counts as a miss (which is how HWASan scores 0% on invalid frees). *)

type verdict =
  | Detected
  | Missed
  | Excluded  (** outside the tool's evaluated subset *)

type case_result = {
  case : Case.t;
  verdict : verdict;
  good_fp : bool;  (** the good version produced a (false) report *)
}

type tool_results = {
  tool : string;
  results : case_result list;
  evaluated : int;
}

val excluded_by : string -> Case.t -> bool
(** Subset rules: PACMem skips socket-input cases; CryptSan and HWASan
    skip all external-input cases; other exclusions arise from
    [Sanitizer.Spec.Unsupported] at build time. *)

val run_one :
  ?backend:Vm.Machine.backend -> Sanitizer.Spec.t -> Case.t ->
  case_result

val run_tool :
  ?map:((Case.t -> case_result) -> Case.t list -> case_result list) ->
  ?backend:Vm.Machine.backend -> Sanitizer.Spec.t -> Case.t list ->
  tool_results
(** [map] (default [List.map]) runs the per-case loop; the harness
    passes an order-preserving parallel map ([Harness.Pool.map]), which
    yields identical results because cases are independent.  [backend]
    threads into every run (verdicts are backend-invariant). *)

val rate : tool_results -> Case.cwe -> float option
(** Detection percentage over the tool's evaluated subset of that CWE. *)

val false_positives : tool_results -> int

val lineup : unit -> Sanitizer.Spec.t list
(** The Table II column order: CECSan, PACMem, CryptSan, HWASan, ASan,
    SoftBound/CETS. *)
