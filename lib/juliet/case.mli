(** Juliet-style test cases: a flaw mechanism crossed with a
    control/data-flow variant, in good (flaw-free) and bad versions. *)

type cwe = C121 | C122 | C124 | C126 | C127 | C415 | C416 | C761

val cwe_name : cwe -> string
val cwe_description : cwe -> string

type flow =
  | Direct
  | If_true
  | Global_flag
  | Fn_flag
  | Helper_call
  | Loop_once
  | Input_fgets    (** guarded by a dummy-server stdin line *)
  | Input_socket   (** guarded by a dummy-server socket byte *)

val all_flows : flow list
val flow_name : flow -> string
val needs_fgets : flow -> bool
val needs_socket : flow -> bool

(** Mechanism properties, used by the runner and the capability-matrix
    tests. *)
type props = {
  uses_wide : bool;   (** wide-character data / libc *)
  subobject : bool;   (** the flaw stays inside one allocation *)
  via_libc : bool;    (** the flawed access happens inside libc *)
}

val plain_props : props

(** Program-body template produced by a mechanism variant. *)
type body = {
  globals : string list;
  helpers : string list;
  setup : string list;
  act : string list;     (** the (potentially) flawed statements *)
  cleanup : string list;
}

type family = {
  cwe : cwe;
  fam_name : string;
  props : props;
  mk : bad:bool -> body;
}

type t = {
  case_id : string;
  cwe : cwe;
  flow : flow;
  fam_name : string;
  props : props;
  good_src : string;
  bad_src : string;
  lines : string list;
  packets : string list;
}

val make : family -> flow -> int -> t
