(** The one JSON codec behind every artifact and reader: telemetry
    snapshots, checkpoint [snapshot] lines, serve requests/responses and
    the [BENCH_*.json] grids.

    The model is the integer subset those formats use: no floats, no
    [\u] escapes beyond latin-1.  The printer emits object keys in the
    order stored and escapes only what it must, so equal values print
    byte-identically -- the property the -j1-vs-j4 [cmp] checks pin.
    The parser is strict and total: every malformed input is an
    [Error], never an exception. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** printed in the order given *)

(** Separators between items and after keys.  Both byte formats are
    pinned by artifacts that outlive a process, so both stay. *)
type layout =
  | Compact  (** [","] and [":"]: snapshots, fuzzcov, resilience *)
  | Spaced   (** [", "] and [": "]: serve protocol, serve/verify grids *)

val to_string : layout -> t -> string
(** Single-line rendering; strings escape quotes, backslashes and
    control characters ([\n], [\t], [\r] by name, the rest as [\u00XX]). *)

val max_depth : int
(** Deepest list/object nesting {!parse} accepts. *)

val parse : string -> (t, string) result
(** Strict parser for what {!to_string} emits in either layout, plus
    whitespace between tokens.  Rejects floats, trailing garbage,
    nesting deeper than {!max_depth}, [\u] escapes that are not exactly
    four hex digits, and objects with a duplicate key.  The error
    carries the byte offset. *)

(** {1 Object accessors} *)

val member : string -> t -> t option
(** The key's binding in an [Obj]; [None] otherwise. *)

val get_str : string -> t -> (string, string) result
val get_int : string -> t -> (int, string) result

val get_bool : ?default:bool -> string -> t -> (bool, string) result
(** A missing key yields [default] when given, an error otherwise. *)
