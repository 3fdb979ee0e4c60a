(** Wire protocol of the analysis service: line-delimited JSON, one
    value per line, in the shared {!Json} codec's [Spaced] layout (fixed
    key order, integers only) so equal messages are byte-identical. *)

val to_string : Json.t -> string
(** [Json.to_string Spaced]: the single-line wire rendering. *)

val parse : string -> (Json.t, string) result
(** {!Json.parse}: strict, total, depth-bounded, duplicate keys
    rejected. *)

(** {1 Requests} *)

type op =
  | Analyze of { source : string; sanitizer : string; optimize : bool }
      (** compile + run one MiniC source under one sanitizer *)
  | Fuzz of { fz_seed : int; inject : bool }
      (** generate the seeded program and run it under CECSan(-O2) *)
  | Bench of { kernel : string; sanitizer : string }
      (** run one SPEC-like kernel under one sanitizer *)

type request = {
  id : int;                            (** echoed in the response *)
  op : op;
  backend : Vm.Machine.backend option;
      (** [None]: the engine's default backend *)
}

val encode_request : request -> Json.t
val decode_request : Json.t -> (request, string) result

(** {1 Responses} *)

type response = {
  rs_id : int;
  rs_ok : bool;
  rs_outcome : string;   (** rendered [Vm.Machine.outcome]; [""] on error *)
  rs_detected : bool;    (** the sanitizer reported at least one bug *)
  rs_cycles : int;       (** deterministic cost-model cycles (0 on error) *)
  rs_reports : int;      (** findings recorded by a [Recover] sink *)
  rs_error : string;     (** error class + detail; [""] when ok *)
}

val encode_response : response -> Json.t
val decode_response : Json.t -> (response, string) result

(** {1 Stream framing} *)

type line =
  | Request of request
  | Flush      (** process everything queued, in submission order *)
  | Snapshot   (** flush, then emit the session aggregate *)
  | Shutdown   (** flush, respond, stop *)

val decode_line : string -> (line, string) result
(** One wire line: a request object, or a control object whose [op] is
    [flush], [snapshot] or [shutdown].  A blank line decodes to
    [Flush]. *)

val backend_name : Vm.Machine.backend -> string
