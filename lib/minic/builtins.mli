(** The libc-style builtin surface available to MiniC programs.  These
    are "external, uninstrumented code" to the sanitizers: the VM
    implements them, and each sanitizer decides which ones it intercepts
    with checking wrappers. *)

type sig_ = { ret : Ast.ty; params : Ast.ty list; varargs : bool }

val find : string -> sig_ option
val is_builtin : string -> bool

val returns_pointer_arg : string -> int option
(** Builtins that return one of their pointer arguments (the index):
    CECSan re-applies the stripped tag to such results (section II.E). *)
