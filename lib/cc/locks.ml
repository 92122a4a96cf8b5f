(** Moss-style read/write locking for nested transactions ([19] in the
    paper; see also Fekete-Lynch-Merritt-Weihl [9]).

    Locking happens at the {e copy} level — each DM is one lockable
    object — which is exactly the granularity at which Theorem 11
    requires serial correctness from the concurrency control
    algorithm.

    The rules (per object):
    - a transaction may acquire a {e read} lock iff every holder of a
      write lock is an ancestor of it;
    - a transaction may acquire a {e write} lock iff every holder of
      any lock is an ancestor of it;
    - when a transaction commits, its locks (and its written
      versions) are {e inherited} by its parent;
    - when a transaction aborts, its locks are discarded and its
      written versions popped, restoring the previous value.

    The version stack per object realizes Moss's recovery scheme: the
    stack holds (holder, value) pairs; the visible value is the top of
    the stack (or the base value); aborting a holder pops its
    entries. *)

open Ioa

type entry = {
  mutable read_holders : Txn.t list;
  mutable write_stack : (Txn.t * Value.t) list;  (** top = current *)
  mutable base : Value.t;
}

type t = { table : (string, entry) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let entry t ~obj ~initial =
  match Hashtbl.find_opt t.table obj with
  | Some e -> e
  | None ->
      let e = { read_holders = []; write_stack = []; base = initial } in
      Hashtbl.add t.table obj e;
      e

let current_value e =
  match e.write_stack with (_, v) :: _ -> v | [] -> e.base

(** Non-ancestor holders standing in the way of [who] acquiring a
    lock of the given kind — the empty list means the lock is free to
    take. *)
let blockers e ~(who : Txn.t) (kind : Txn.kind) : Txn.t list =
  let non_ancestor h = not (Txn.is_ancestor h who) in
  let writers = List.filter non_ancestor (List.map fst e.write_stack) in
  match kind with
  | Txn.Read -> writers
  | Txn.Write -> writers @ List.filter non_ancestor e.read_holders

(** [try_read t ~obj ~initial ~who] attempts a read access.  Returns
    the visible value or the blocking holders. *)
let try_read t ~obj ~initial ~who : (Value.t, Txn.t list) result =
  let e = entry t ~obj ~initial in
  match blockers e ~who Txn.Read with
  | [] ->
      if not (List.exists (Txn.equal who) e.read_holders) then
        e.read_holders <- who :: e.read_holders;
      Ok (current_value e)
  | bs -> Error bs

(** [try_write t ~obj ~initial ~who v] attempts a write access. *)
let try_write t ~obj ~initial ~who v : (unit, Txn.t list) result =
  let e = entry t ~obj ~initial in
  match blockers e ~who Txn.Write with
  | [] ->
      e.write_stack <- (who, v) :: e.write_stack;
      Ok ()
  | bs -> Error bs

(** Unsynchronized operations, bypassing the locking rules entirely
    (the version stack is still maintained so recovery keeps working).
    Only for ablation runs and oracle mutation tests. *)
let read_unlocked t ~obj ~initial ~who =
  let e = entry t ~obj ~initial in
  if not (List.exists (Txn.equal who) e.read_holders) then
    e.read_holders <- who :: e.read_holders;
  current_value e

let write_unlocked t ~obj ~initial ~who v =
  let e = entry t ~obj ~initial in
  e.write_stack <- (who, v) :: e.write_stack

(** Lock inheritance at commit: every lock and version held by [who]
    passes to its parent.  A parent that is the root means the
    transaction was top-level: its versions become the base value and
    its locks are released. *)
let commit t (who : Txn.t) =
  let parent = Txn.parent who in
  (* per-entry mutation, no cross-entry dataflow *)
  (* lint: order-insensitive *)
  Hashtbl.iter
    (fun _ e ->
      if Txn.is_root parent then begin
        (* top-level commit: install the newest version as base *)
        (match
           List.find_opt (fun (h, _) -> Txn.equal h who) e.write_stack
         with
        | Some (_, v) -> e.base <- v
        | None -> ());
        e.write_stack <-
          List.filter (fun (h, _) -> not (Txn.equal h who)) e.write_stack;
        e.read_holders <-
          List.filter (fun h -> not (Txn.equal h who)) e.read_holders
      end
      else begin
        e.write_stack <-
          List.map
            (fun (h, v) -> if Txn.equal h who then (parent, v) else (h, v))
            e.write_stack;
        e.read_holders <-
          List.map (fun h -> if Txn.equal h who then parent else h)
            e.read_holders
        |> List.sort_uniq Txn.compare
      end)
    t.table

(** Abort: drop all locks and versions held by [who] or any of its
    descendants (the whole subtree aborts together). *)
let abort t (who : Txn.t) =
  (* per-entry mutation, no cross-entry dataflow *)
  (* lint: order-insensitive *)
  Hashtbl.iter
    (fun _ e ->
      e.write_stack <-
        List.filter (fun (h, _) -> not (Txn.is_ancestor who h)) e.write_stack;
      e.read_holders <-
        List.filter (fun h -> not (Txn.is_ancestor who h)) e.read_holders)
    t.table

let by_obj (o1, _) (o2, _) = String.compare o1 o2

(** Final committed value of every object touched, sorted by object
    name — hash-bucket order must not reach test assertions. *)
let committed_values t =
  (* lint: order-insensitive *)
  Hashtbl.fold (fun obj e acc -> (obj, e.base) :: acc) t.table []
  |> List.sort by_obj

(** Any live (uncommitted-to-root) lock holders left?  Sorted by
    object name; used by tests to assert clean termination. *)
let residual_holders t =
  (* lint: order-insensitive *)
  Hashtbl.fold
    (fun obj e acc ->
      let hs = List.map fst e.write_stack @ e.read_holders in
      if hs = [] then acc else (obj, hs) :: acc)
    t.table []
  |> List.sort by_obj
