(** Reusable cluster-correctness predicates: the single-writer
    consistency audit, static quorum-intersection checks, and
    liveness-after-heal.

    The audit is the oracle of every nemesis test and of the seed
    swarm.  It exploits the single-writer-per-key discipline of the
    workload: per key, completed writes carry strictly increasing
    version numbers, and every successful read must return a version
    at least as new as the newest write completed before the read
    began, with the value actually written at that version.  Quorum
    intersection is exactly what makes this hold across failures; a
    configuration without intersection (or a protocol bug) fails the
    audit.  The violation strings are part of the golden-digest
    surface — they render into {!Store.Cluster.digest} — so their
    wording is frozen. *)

module Strtbl = Qc_util.Strtbl

type entry = { vn : int; value : int; completed_at : float }

(** Audit state: per-key completed-write history plus the violation
    log (newest first, the historical order). *)
type audit = {
  completed_writes : entry list Strtbl.t;
  mutable violations : string list;
}

let audit () = { completed_writes = Strtbl.create 64; violations = [] }

let note a fmt = Fmt.kstr (fun s -> a.violations <- s :: a.violations) fmt

(** Check one successful read: [started] is when the read was issued,
    [vn]/[value] what it returned. *)
(* The highest version among [writes] completed by [started] ([m] if
   none is higher). *)
let rec newest_by started m = function
  | [] -> m
  | e :: rest ->
      newest_by started
        (if e.completed_at <= started && e.vn > m then e.vn else m)
        rest

(* The write of version [vn], if any. *)
let rec write_at vn = function
  | [] -> None
  | e :: rest -> if e.vn = vn then Some e else write_at vn rest

let read_ok a ~key ~started ~vn ~value =
  let writes =
    match Strtbl.find a.completed_writes key with
    | l -> l
    | exception Not_found -> []
  in
  (* audit: newest write completed before we started *)
  let newest = newest_by started 0 writes in
  if vn < newest then
    note a "stale read of %s: returned vn %d < completed vn %d" key vn newest;
  (* the value must be what was written at that vn *)
  if vn > 0 then
    match write_at vn writes with
    | Some e when e.value <> value ->
        note a "corrupt read of %s: vn %d has %d, read %d" key vn e.value value
    | _ -> ()

(** Record one successful write completing at [now] with version [vn]
    of [value]. *)
let write_ok a ~key ~vn ~value ~now =
  let prev =
    try Strtbl.find a.completed_writes key with Not_found -> []
  in
  (* single-writer-per-key: versions must increase *)
  List.iter
    (fun e ->
      if e.vn >= vn then
        note a "non-monotonic write to %s: vn %d after %d" key vn e.vn)
    prev;
  Strtbl.replace a.completed_writes key
    ({ vn; value; completed_at = now } :: prev)

let violations a = a.violations

(* ---------- multi-key transaction audit ---------- *)

type txn_report = {
  t_txid : string;
  t_started : float;
  t_completed : float;
  t_reads : (string * int * int) list;  (** (key, vn, value) snapshot *)
  t_writes : (string * int * int) list;  (** (key, vn, value) installed *)
}

(** Audit state for multi-key transaction histories.  Two sources
    feed it: {e decided} commits (the replica-side decision hook —
    authoritative, covers transactions whose coordinator died after
    the decision was chosen) and {e acked} commits (the client saw
    the commit complete — these carry the read snapshots and anchor
    the recency check).  Acked is a subset of decided. *)
type txn_audit = {
  mutable acked : txn_report list;  (** newest first *)
  decided_w : (string * int * int) list Strtbl.t;
      (** txid -> committed write set *)
  mutable txn_violations : string list;
}

let txn_audit () =
  { acked = []; decided_w = Strtbl.create 64; txn_violations = [] }

let txn_note a fmt =
  Fmt.kstr (fun s -> a.txn_violations <- s :: a.txn_violations) fmt

(* Write-set equality: polymorphic [=] on (key, vn, value) lists,
   with an early [true] for one physical list — every participant's
   decision hook passes the decided list itself. *)
let rec same_writes (a : (string * int * int) list) b =
  a == b
  ||
  match (a, b) with
  | [], [] -> true
  | (k, vn, v) :: a', (k', vn', v') :: b' ->
      String.equal k k' && vn = vn' && v = v' && same_writes a' b'
  | _ -> false

(** Record a decision learned at some replica.  Aborts are ignored;
    duplicate commit records (every participant fires the hook) must
    agree on the write set. *)
let txn_decided a ~txid ~commit ~writes =
  if commit then
    match Strtbl.find a.decided_w txid with
    | exception Not_found -> Strtbl.replace a.decided_w txid writes
    | prior ->
        if not (same_writes prior writes) then
          txn_note a "txn %s decided with two write sets" txid

(** Record a client-acked commit. *)
let txn_committed a ~txid ~started ~now ~reads ~writes =
  a.acked <-
    {
      t_txid = txid;
      t_started = started;
      t_completed = now;
      t_reads = reads;
      t_writes = writes;
    }
    :: a.acked

(* The audit's per-key index: the decided versions of the key and the
   acked writes to it. *)
type key_index = {
  mutable chain : (int * int) list;
      (** (vn, writer node) of every decided write, newest first *)
  by_vn : (int, int * int) Hashtbl.t;
      (** vn -> (value, writer node); the last insert wins, as the
          newest-first chain's first match would *)
  mutable acked_w : (float * int) list;
      (** (completed, vn) of the acked writes, in acked order *)
}

(** Run the end-of-run transaction checks, appending to the violation
    log: acked ⊆ decided, per-key version uniqueness across decided
    commits, read validity (every read snapshot names a version some
    decided commit installed, with its value), recency (an acked
    commit is visible to every acked transaction that starts later),
    and acyclicity of the serialization graph (ww edges by version
    order, wr read-from edges, rw anti-dependency edges).

    Decided transactions become graph nodes [0 .. n-1], numbered in
    txid order; each key's index is built once, so a read costs one
    scan of its key's acked writes and decided versions. *)
let txn_check a =
  let acked = List.rev a.acked in
  let index : key_index Strtbl.t = Strtbl.create 64 in
  let key_index k =
    match Strtbl.find index k with
    | ix -> ix
    | exception Not_found ->
        let ix = { chain = []; by_vn = Hashtbl.create 4; acked_w = [] } in
        Strtbl.replace index k ix;
        ix
  in
  (* acked commits must have been decided, with the acked write set *)
  List.iter
    (fun r ->
      match Strtbl.find_opt a.decided_w r.t_txid with
      | None -> txn_note a "acked txn %s was never decided" r.t_txid
      | Some w ->
          if not (same_writes w r.t_writes) then
            txn_note a "acked txn %s: acked writes differ from decided"
              r.t_txid)
    acked;
  (* consing while walking the newest-first log leaves each key's
     acked writes in acked order *)
  List.iter
    (fun r ->
      List.iter
        (fun (k, vn, _) ->
          let ix = key_index k in
          ix.acked_w <- (r.t_completed, vn) :: ix.acked_w)
        (List.rev r.t_writes))
    a.acked;
  (* committed versions per key, each installed by exactly one txn *)
  let decided =
    (* lint: order-insensitive *)
    Strtbl.fold (fun txid w acc -> (txid, w) :: acc) a.decided_w []
    |> List.sort (fun (x, _) (y, _) -> String.compare x y)
  in
  let n = List.length decided in
  (* arrays longer than a minor-heap block start from immediate values
     and are filled in place: [Array.make]/[Array.of_list]/[Array.map]
     with a young initial element force a minor collection *)
  let txid_of = Array.make n "" in
  let node : int Strtbl.t = Strtbl.create n in
  let written = ref [] in
  List.iteri
    (fun i (txid, writes) ->
      txid_of.(i) <- txid;
      Strtbl.replace node txid i;
      List.iter
        (fun (k, vn, v) ->
          let ix = key_index k in
          if ix.chain = [] then written := ix :: !written;
          (match Hashtbl.find_opt ix.by_vn vn with
          | Some (_, j) ->
              txn_note a "duplicate version %d of %s (txns %s and %s)" vn k
                txid_of.(j) txid
          | None -> ());
          Hashtbl.replace ix.by_vn vn (v, i);
          ix.chain <- (vn, i) :: ix.chain)
        writes)
    decided;
  (* serialization graph over decided commits (reads known only for
     acked ones): ww by version order, wr read-from, rw
     anti-dependency; a cycle breaks serializability *)
  let succs = Array.make n [] in
  let edge x y = if x <> y then succs.(x) <- y :: succs.(x) in
  List.iter
    (fun ix ->
      let rec ww = function
        | (_, t1) :: ((_, t2) :: _ as rest) ->
            edge t1 t2;
            ww rest
        | _ -> ()
      in
      ww (List.stable_sort (fun (x, _) (y, _) -> Int.compare x y) ix.chain))
    !written;
  (* read validity + recency, and the read's wr/rw edges.  The graph
     is over decided commits, so the reads of an acked transaction
     that was never decided add no edges. *)
  List.iter
    (fun r ->
      let reader = Strtbl.find_opt node r.t_txid in
      List.iter
        (fun (k, vn, v) ->
          let ix = Strtbl.find_opt index k in
          let writer =
            Option.bind ix (fun ix -> Hashtbl.find_opt ix.by_vn vn)
          in
          (if vn = 0 then begin
             if v <> 0 then
               txn_note a "txn %s read unwritten %s as %d" r.t_txid k v
           end
           else
             match writer with
             | None ->
                 txn_note a "txn %s read %s at unknown version %d" r.t_txid k
                   vn
             | Some (v', _) ->
                 if v' <> v then
                   txn_note a "corrupt txn read of %s: vn %d has %d, read %d"
                     k vn v' v);
          match ix with
          | None -> ()
          | Some ix -> (
              List.iter
                (fun (completed, wvn) ->
                  if completed <= r.t_started && vn < wvn then
                    txn_note a "stale txn read of %s: vn %d < committed vn %d"
                      k vn wvn)
                ix.acked_w;
              match reader with
              | None -> ()
              | Some x ->
                  (* wr: the version's writer happens before the reader *)
                  (match writer with Some (_, w) -> edge w x | None -> ());
                  (* rw: the reader happens before every later writer *)
                  List.iter
                    (fun (vn', w') -> if vn' > vn then edge x w')
                    ix.chain))
        r.t_reads)
    acked;
  (* DFS cycle detection: nodes and successors in txid order, so the
     reported node is deterministic *)
  let color = Array.make n `White in
  let cycle = ref None in
  let rec visit i =
    match color.(i) with
    | `Black -> ()
    | `Grey -> if !cycle = None then cycle := Some i
    | `White ->
        color.(i) <- `Grey;
        List.iter visit (List.sort_uniq Int.compare succs.(i));
        color.(i) <- `Black
  in
  for i = 0 to n - 1 do
    visit i
  done;
  match !cycle with
  | Some i ->
      txn_note a "serialization graph cycle through txn %s" txid_of.(i)
  | None -> ()

let txn_violations a = a.txn_violations
let txn_decided_count a = Strtbl.length a.decided_w

(* ---------- static quorum sanity ---------- *)

(** Does the configuration pass the static lint gate — legal
    read/write intersection and a minimization that preserves it?
    Swarm runs check this up front so a fuzzing campaign on a broken
    configuration fails fast with a structural message rather than a
    pile of stale reads. *)
let quorum_ok ~name (config : Quorum.Config.t) : (unit, string) result =
  let v = Lint.Quorum_check.check_config ~name config in
  if not v.Lint.Quorum_check.legal_rw then
    Error
      (Fmt.str "%s: read/write quorums do not all intersect (R=%d, W=%d)" name
         v.Lint.Quorum_check.n_read v.Lint.Quorum_check.n_write)
  else if not v.Lint.Quorum_check.minimize_preserves then
    Error (Fmt.str "%s: minimization does not preserve intersection" name)
  else Ok ()

(* ---------- liveness after heal ---------- *)

(** After a script that provably settles ({!Script.quiesces_at}), the
    cluster must make progress again: among operations completing
    after the quiesce time, at least one must succeed.  [completions]
    is the run's chronological [(finished_at, ok)] log.  Vacuously [Ok]
    when the script never settles or nothing completes afterwards
    (the workload may simply have finished first). *)
let liveness_after_heal ~script ~completions : (unit, string) result =
  match Script.quiesces_at script with
  | None -> Ok ()
  | Some t ->
      let after = List.filter (fun (at, _) -> at > t) completions in
      if after = [] then Ok ()
      else if List.exists (fun (_, ok) -> ok) after then Ok ()
      else
        Error
          (Fmt.str
             "no operation succeeded after the script healed at %.12g (%d \
              completions, all failed)"
             t (List.length after))
