(** Reed-style multiversion timestamp ordering ([20] in the paper) —
    the second copy-level concurrency control algorithm, demonstrating
    Theorem 11's "any correct concurrency control algorithm" claim
    with a genuinely different serialization order (timestamp order
    rather than commit order).

    Each top-level transaction receives a timestamp when it first
    touches data; all its descendants inherit it.  Per object:
    - a read at timestamp [ts] returns the version with the largest
      write-timestamp <= [ts]; if that version is still uncommitted
      and belongs to another top-level, the reader {e blocks} until
      the writer resolves (waits only go from larger to smaller
      timestamps, so they cannot cycle);
    - a write at [ts] is {e rejected} (transaction must abort) when
      the version it would supersede has already been read by a
      transaction with a larger timestamp — the classic late-write
      rule;
    - versions become committed when their top-level commits; aborts
      discard the subtree's versions.

    Simplification vs. Reed's full design (documented in DESIGN.md):
    timestamps are per top-level transaction, so sibling subtransactions
    of one top-level are ordered by their execution interleaving
    rather than by sub-timestamps. *)

open Ioa

type version = {
  write_ts : int;
  value : Value.t;
  writer : Txn.t;  (** the access that wrote it (for subtree aborts) *)
  writer_top : Txn.t;
  mutable committed : bool;
  mutable read_ts : int;  (** largest timestamp that read this version *)
}

type obj_state = { mutable versions : version list (* newest ts first *) }

type t = {
  objects : (string, obj_state) Hashtbl.t;
  ts_of : (Txn.t, int) Hashtbl.t;  (** top-level -> timestamp *)
  mutable next_ts : int;
}

let create () =
  { objects = Hashtbl.create 64; ts_of = Hashtbl.create 16; next_ts = 1 }

let top_level_of (name : Txn.t) : Txn.t =
  match name with [] -> [] | s :: _ -> [ s ]

let timestamp t (who : Txn.t) =
  let top = top_level_of who in
  match Hashtbl.find_opt t.ts_of top with
  | Some ts -> ts
  | None ->
      let ts = t.next_ts in
      t.next_ts <- ts + 1;
      Hashtbl.replace t.ts_of top ts;
      ts

let obj_state t ~obj ~initial =
  match Hashtbl.find_opt t.objects obj with
  | Some s -> s
  | None ->
      let s =
        {
          versions =
            [
              {
                write_ts = 0;
                value = initial;
                writer = Txn.root;
                writer_top = Txn.root;
                committed = true;
                read_ts = 0;
              };
            ];
        }
      in
      Hashtbl.add t.objects obj s;
      s

(* The version a transaction with timestamp [ts] from [top] reads:
   largest write_ts <= ts, preferring its own top's versions at equal
   write_ts (a top-level sees its own writes). *)
let visible_version s ~ts =
  List.find_opt (fun v -> v.write_ts <= ts) s.versions

type read_result = ROk of Value.t | RBlock of Txn.t list | RAbort
type write_result = WOk | WBlock of Txn.t list | WAbort

let try_read t ~obj ~initial ~who : read_result =
  let ts = timestamp t who in
  let top = top_level_of who in
  let s = obj_state t ~obj ~initial in
  match visible_version s ~ts with
  | None -> RAbort (* unreachable: version 0 always present *)
  | Some v ->
      if (not v.committed) && not (Txn.equal v.writer_top top) then
        RBlock [ v.writer_top ]
      else begin
        v.read_ts <- Int.max v.read_ts ts;
        ROk v.value
      end

let try_write t ~obj ~initial ~who value : write_result =
  let ts = timestamp t who in
  let top = top_level_of who in
  let s = obj_state t ~obj ~initial in
  match visible_version s ~ts with
  | None -> WAbort
  | Some v ->
      if v.read_ts > ts && not (Txn.equal v.writer_top top) then
        (* late write: a later transaction already read the state this
           write would change *)
        WAbort
      else begin
        let nv =
          {
            write_ts = ts;
            value;
            writer = who;
            writer_top = top;
            committed = false;
            read_ts = ts;
          }
        in
        (* A same-timestamp version by the same top (a transaction
           overwriting its own earlier write) is SHADOWED, not
           replaced: the sort is stable and [nv] is prepended, so it
           precedes equal-timestamp versions, while the earlier
           version survives underneath in case the newer writer's
           subtree later aborts (nested recovery). *)
        s.versions <-
          List.sort
            (fun a b -> Int.compare b.write_ts a.write_ts)
            (nv :: s.versions);
        WOk
      end

(** Commit: a top-level commit publishes its versions. *)
let commit t (who : Txn.t) =
  if (not (Txn.is_root who)) && Txn.is_root (Txn.parent who) then
    (* per-entry mutation, no cross-entry dataflow *)
    (* lint: order-insensitive *)
    Hashtbl.iter
      (fun _ s ->
        List.iter
          (fun v -> if Txn.equal v.writer_top who then v.committed <- true)
          s.versions)
      t.objects

(** Abort: discard the versions written inside the aborting subtree. *)
let abort t (who : Txn.t) =
  (* per-entry mutation, no cross-entry dataflow *)
  (* lint: order-insensitive *)
  Hashtbl.iter
    (fun _ s ->
      s.versions <-
        List.filter (fun v -> not (Txn.is_ancestor who v.writer)) s.versions)
    t.objects

(** Final committed value per object (the committed version with the
    largest write timestamp), sorted by object name — hash-bucket
    order must not reach test assertions. *)
let committed_values t =
  (* lint: order-insensitive *)
  Hashtbl.fold
    (fun obj s acc ->
      match List.find_opt (fun v -> v.committed) s.versions with
      | Some v -> (obj, v.value) :: acc
      | None -> acc)
    t.objects []
  |> List.sort (fun (o1, _) (o2, _) -> String.compare o1 o2)

(** Residual uncommitted versions (0 after a clean run). *)
let residual t =
  (* a commutative sum over entries *)
  (* lint: order-insensitive *)
  Hashtbl.fold
    (fun _ s acc ->
      acc + List.length (List.filter (fun v -> not v.committed) s.versions))
    t.objects 0

(** The serialization witness order: committed top-levels sorted by
    timestamp. *)
let serial_order t (committed_tops : Txn.t list) : Txn.t list =
  List.sort
    (fun a b ->
      Int.compare
        (Option.value ~default:0 (Hashtbl.find_opt t.ts_of a))
        (Option.value ~default:0 (Hashtbl.find_opt t.ts_of b)))
    committed_tops
