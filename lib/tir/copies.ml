(* Tir.Copies: block-local copy chains over one function's registers,
   the canonicalization behind [q = p; check q; ...; q = p; *q] keying
   both the check and the access on [p].  Used by the redundant-check
   pass (Sanitizer.Checkopt) and by the coverage verifier (Tir.Verify),
   each over a table of its own.

   A copy always names a root: a register with no live copy entry of
   its own, so [canon] is one lookup.  Redefining a register kills its
   own entry and every copy of it.  Kills are not walked: each copy is
   stamped with the tick it was recorded at, and each register with the
   tick it was last defined at, so a copy is live only while it is
   newer than the last [reset], than its own register's last definition
   and than its root's.  A kill and a reset are one store each.

   Registers in [0, nregs) index the tables directly; any other
   register a copy names (malformed IR) gets an overflow index past
   them on first use, so it keeps its meaning and never indexes out of
   bounds.  A register no copy has named has no entry and no copies, so
   [canon] and [kill] need no index for it. *)

type t = {
  nregs : int;
  mutable over : (int, int) Hashtbl.t option;  (* register -> index *)
  mutable root : int array;    (* index -> the root its copy names *)
  mutable since : int array;   (* index -> tick its copy was recorded *)
  mutable defined : int array; (* index -> tick it was last defined *)
  mutable clock : int;
  mutable reset_at : int;
}

let create nregs =
  let n = max nregs 0 in
  { nregs = n; over = None; root = Array.make n 0; since = Array.make n 0;
    defined = Array.make n 0; clock = 0; reset_at = 0 }

let empty = create 0

let index t r =
  if r >= 0 && r < t.nregs then r
  else
    match t.over with
    | None -> -1
    | Some h -> (try Hashtbl.find h r with Not_found -> -1)

let grow a n = Array.append a (Array.make (n - Array.length a) 0)

let index_or_add t r =
  let k = index t r in
  if k >= 0 then k
  else begin
    let h =
      match t.over with
      | Some h -> h
      | None ->
        let h = Hashtbl.create 4 in
        t.over <- Some h;
        h
    in
    let k = t.nregs + Hashtbl.length h in
    Hashtbl.replace h r k;
    if k >= Array.length t.root then begin
      let n = max 4 (2 * Array.length t.root) in
      t.root <- grow t.root n;
      t.since <- grow t.since n;
      t.defined <- grow t.defined n
    end;
    k
  end

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* every root a copy names has an index: [move] gave it one *)
let live t k =
  let s = t.since.(k) in
  s > t.reset_at && s > t.defined.(k) && s > t.defined.(index t t.root.(k))

let canon t r =
  let k = index t r in
  if k >= 0 && live t k then t.root.(k) else r

let kill t r =
  let k = index t r in
  if k >= 0 then t.defined.(k) <- tick t

(* The root is resolved after the kill, as [dst] may be the root [src]
   copies.  A self-copy leaves [dst] a root. *)
let move t ~dst ~src =
  kill t dst;
  let root = canon t src in
  if root <> dst then begin
    let k = index_or_add t dst in
    ignore (index_or_add t root);
    t.root.(k) <- root;
    t.since.(k) <- tick t
  end

let reset t = t.reset_at <- tick t
