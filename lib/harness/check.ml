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

(** A key's completed writes, newest first.  [ordered] holds while
    their versions strictly decrease from the head — what a single
    writer produces — so the first write completed by a given time
    carries the highest version among those, and no write carries a
    version above the head's. *)
type history = { mutable writes : entry list; mutable ordered : bool }

(** Audit state: per-key completed-write history plus the violation
    log (newest first, the historical order). *)
type audit = {
  completed_writes : history Strtbl.t;
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

(* [newest_by started 0] of an ordered history *)
let rec newest_ordered started = function
  | [] -> 0
  | e :: rest ->
      if e.completed_at <= started then Int.max e.vn 0
      else newest_ordered started rest

(* The write of version [vn], if any; an ordered history stops at the
   first older version. *)
let rec write_at ~ordered vn = function
  | [] -> None
  | e :: rest ->
      if e.vn = vn then Some e
      else if ordered && e.vn < vn then None
      else write_at ~ordered vn rest

let no_history = { writes = []; ordered = true }

let read_ok a ~key ~started ~vn ~value =
  let h =
    try Strtbl.find a.completed_writes key with Not_found -> no_history
  in
  (* audit: newest write completed before we started *)
  let newest =
    if h.ordered then newest_ordered started h.writes
    else newest_by started 0 h.writes
  in
  if vn < newest then
    note a "stale read of %s: returned vn %d < completed vn %d" key vn newest;
  (* the value must be what was written at that vn *)
  if vn > 0 then
    match write_at ~ordered:h.ordered vn h.writes with
    | Some e when e.value <> value ->
        note a "corrupt read of %s: vn %d has %d, read %d" key vn e.value value
    | _ -> ()

(** Record one successful write completing at [now] with version [vn]
    of [value]. *)
let write_ok a ~key ~vn ~value ~now =
  let h =
    try Strtbl.find a.completed_writes key
    with Not_found ->
      let h = { writes = []; ordered = true } in
      Strtbl.add a.completed_writes key h;
      h
  in
  (* single-writer-per-key: versions must increase — an ordered
     history's head carries its highest version *)
  (match h.writes with
  | [] -> ()
  | e :: _ when h.ordered && vn > e.vn -> ()
  | prev ->
      h.ordered <- false;
      List.iter
        (fun e ->
          if e.vn >= vn then
            note a "non-monotonic write to %s: vn %d after %d" key vn e.vn)
        prev);
  h.writes <- { vn; value; completed_at = now } :: h.writes

let violations a = a.violations

(* ---------- multi-key transaction audit ---------- *)

module Txid = Qc_util.Txid
module Inttbl = Qc_util.Inttbl

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
  decided_w : (string * int * int) list Inttbl.t;
      (** txid id -> committed write set *)
  mutable decided : (Txid.t * (string * int * int) list) list;
      (** the same decisions with their txids, newest first *)
  mutable txn_violations : string list;
}

let txn_audit () =
  {
    acked = [];
    decided_w = Inttbl.create 64;
    decided = [];
    txn_violations = [];
  }

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
    agree on the write set.  The participants of one decision usually
    report it back to back, each with the txid and the decided list
    the decision message carried: a repeat of the newest record is
    then known without a lookup. *)
let txn_decided a ~(txid : Txid.t) ~commit ~writes =
  let repeat =
    match a.decided with
    | (t, w) :: _ -> t == txid && w == writes
    | [] -> false
  in
  if commit && not repeat then
    match Inttbl.find a.decided_w txid.id with
    | exception Not_found ->
        Inttbl.replace a.decided_w txid.id writes;
        a.decided <- (txid, writes) :: a.decided
    | prior ->
        if not (same_writes prior writes) then
          txn_note a "txn %s decided with two write sets" txid.name

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

(* The audit's per-key index: the key's segments of the flat arrays
   [txn_check] lays its acked and its decided writes out in. *)
type key_index = {
  mutable acked_at : int;
  mutable n_acked : int;  (** acked writes, in acked order *)
  mutable dec_at : int;
  mutable n_dec : int;  (** decided writes, in recording order *)
}

(* the first position in [lo, hi) of [order] whose version [vns.(_)]
   is above [vn] ([above = false]: at least [vn]); [hi] if none is —
   the segment is sorted by version *)
let search (order : int array) (vns : int array) lo hi (vn : int) ~above =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let m = vns.(order.(mid)) in
    if m > vn || ((not above) && m = vn) then hi := mid else lo := mid + 1
  done;
  !lo

(** Run the end-of-run transaction checks, appending to the violation
    log: acked ⊆ decided, per-key version uniqueness across decided
    commits, read validity (every read snapshot names a version some
    decided commit installed, with its value), recency (an acked
    commit is visible to every acked transaction that starts later),
    and acyclicity of the serialization graph (ww edges by version
    order, wr read-from edges, rw anti-dependency edges).

    Decided transactions become graph nodes [0 .. n-1], numbered in
    txid-name order.  Each key is indexed once: its acked writes and
    its decided writes sit in one segment each of flat arrays, the
    decided ones sorted by version, so a read finds its version by
    binary search and its rw edges walk only newer versions. *)
let txn_check a =
  let acked = List.rev a.acked in
  let index : key_index Strtbl.t = Strtbl.create 64 in
  let key_index k =
    match Strtbl.find index k with
    | ix -> ix
    | exception Not_found ->
        let ix = { acked_at = 0; n_acked = 0; dec_at = 0; n_dec = 0 } in
        Strtbl.replace index k ix;
        ix
  in
  let decided =
    List.sort
      (fun ((x : Txid.t), _) ((y : Txid.t), _) -> String.compare x.name y.name)
      a.decided
  in
  let n = List.length decided in
  (* arrays longer than a minor-heap block start from immediate values
     and are filled in place: [Array.make]/[Array.of_list]/[Array.map]
     with a young initial element force a minor collection *)
  let txid_of = Array.make n "" in
  let writes_of = Array.make n [] in
  let node : int Strtbl.t = Strtbl.create n in
  List.iteri
    (fun i ((txid : Txid.t), w) ->
      txid_of.(i) <- txid.name;
      writes_of.(i) <- w;
      Strtbl.replace node txid.name i)
    decided;
  (* acked commits must have been decided, with the acked write set *)
  List.iter
    (fun r ->
      match Strtbl.find_opt node r.t_txid with
      | None -> txn_note a "acked txn %s was never decided" r.t_txid
      | Some i ->
          if not (same_writes writes_of.(i) r.t_writes) then
            txn_note a "acked txn %s: acked writes differ from decided"
              r.t_txid)
    acked;
  (* count each key's writes, give each key its segments, then fill
     them: acked writes in acked order, decided ones in recording
     order (by node, then write-set order) *)
  List.iter
    (fun r ->
      List.iter
        (fun (k, _, _) ->
          let ix = key_index k in
          ix.n_acked <- ix.n_acked + 1)
        r.t_writes)
    acked;
  Array.iter
    (List.iter (fun (k, _, _) ->
         let ix = key_index k in
         ix.n_dec <- ix.n_dec + 1))
    writes_of;
  let na = ref 0 and nd = ref 0 in
  (* lint: order-insensitive *)
  Strtbl.iter
    (fun _ ix ->
      ix.acked_at <- !na;
      na := !na + ix.n_acked;
      ix.n_acked <- 0;
      ix.dec_at <- !nd;
      nd := !nd + ix.n_dec;
      ix.n_dec <- 0)
    index;
  let ack_vn = Array.make !na 0 and ack_done = Array.make !na 0.0 in
  List.iter
    (fun r ->
      List.iter
        (fun (k, vn, _) ->
          let ix = Strtbl.find index k in
          let j = ix.acked_at + ix.n_acked in
          ack_vn.(j) <- vn;
          ack_done.(j) <- r.t_completed;
          ix.n_acked <- ix.n_acked + 1)
        r.t_writes)
    acked;
  let d_vn = Array.make !nd 0 and d_value = Array.make !nd 0 in
  let d_node = Array.make !nd 0 and d_seq = Array.make !nd 0 in
  let seq = ref 0 in
  Array.iteri
    (fun i ->
      List.iter (fun (k, vn, v) ->
          let ix = Strtbl.find index k in
          let j = ix.dec_at + ix.n_dec in
          d_vn.(j) <- vn;
          d_value.(j) <- v;
          d_node.(j) <- i;
          d_seq.(j) <- !seq;
          incr seq;
          ix.n_dec <- ix.n_dec + 1))
    writes_of;
  (* [order]: each key's segment of decided writes sorted by version,
     equal versions newest first — so a version's first entry is the
     one recorded last, the writer a vn lookup finds *)
  let order = Array.init !nd Fun.id in
  (* lint: order-insensitive *)
  Strtbl.iter
    (fun _ ix ->
      if ix.n_dec > 1 then
        List.iteri
          (fun j w -> order.(ix.dec_at + j) <- w)
          (List.stable_sort
             (fun x y ->
               match Int.compare d_vn.(x) d_vn.(y) with
               | 0 -> Int.compare y x
               | c -> c)
             (List.init ix.n_dec (fun j -> ix.dec_at + j))))
    index;
  (* committed versions per key, each installed by exactly one txn:
     two writes of one version sit side by side in [order], newest
     first, and each but the oldest found its predecessor when it was
     recorded — report them in recording order *)
  let dups = ref [] in
  (* lint: order-insensitive *)
  Strtbl.iter
    (fun k ix ->
      for j = ix.dec_at to ix.dec_at + ix.n_dec - 2 do
        let w = order.(j) and prev = order.(j + 1) in
        if d_vn.(w) = d_vn.(prev) then dups := (d_seq.(w), k, w, prev) :: !dups
      done)
    index;
  List.iter
    (fun (_, k, w, prev) ->
      txn_note a "duplicate version %d of %s (txns %s and %s)" d_vn.(w) k
        txid_of.(d_node.(prev)) txid_of.(d_node.(w)))
    (List.sort (fun (x, _, _, _) (y, _, _, _) -> Int.compare x y) !dups);
  (* serialization graph over decided commits (reads known only for
     acked ones): ww by version order, wr read-from, rw
     anti-dependency; a cycle breaks serializability *)
  let succs = Array.make n [] in
  let edge x y = if x <> y then succs.(x) <- y :: succs.(x) in
  (* lint: order-insensitive *)
  Strtbl.iter
    (fun _ ix ->
      for j = ix.dec_at to ix.dec_at + ix.n_dec - 2 do
        edge d_node.(order.(j)) d_node.(order.(j + 1))
      done)
    index;
  (* read validity + recency, and the read's wr/rw edges.  The graph
     is over decided commits, so the reads of an acked transaction
     that was never decided add no edges. *)
  List.iter
    (fun r ->
      let reader = Strtbl.find_opt node r.t_txid in
      List.iter
        (fun (k, vn, v) ->
          let ix = Strtbl.find_opt index k in
          (* the slot of the version's writer, -1 if none *)
          let writer =
            match ix with
            | None -> -1
            | Some ix ->
                let hi = ix.dec_at + ix.n_dec in
                let j = search order d_vn ix.dec_at hi vn ~above:false in
                if j < hi && d_vn.(order.(j)) = vn then order.(j) else -1
          in
          (if vn = 0 then begin
             if v <> 0 then
               txn_note a "txn %s read unwritten %s as %d" r.t_txid k v
           end
           else if writer < 0 then
             txn_note a "txn %s read %s at unknown version %d" r.t_txid k vn
           else if d_value.(writer) <> v then
             txn_note a "corrupt txn read of %s: vn %d has %d, read %d" k vn
               d_value.(writer) v);
          match ix with
          | None -> ()
          | Some ix -> (
              for j = ix.acked_at to ix.acked_at + ix.n_acked - 1 do
                if ack_done.(j) <= r.t_started && vn < ack_vn.(j) then
                  txn_note a "stale txn read of %s: vn %d < committed vn %d" k
                    vn ack_vn.(j)
              done;
              match reader with
              | None -> ()
              | Some x ->
                  (* wr: the version's writer happens before the reader *)
                  if writer >= 0 then edge d_node.(writer) x;
                  (* rw: the reader happens before every later writer *)
                  let hi = ix.dec_at + ix.n_dec in
                  let newer = search order d_vn ix.dec_at hi vn ~above:true in
                  for j = newer to hi - 1 do
                    edge x d_node.(order.(j))
                  done))
        r.t_reads)
    acked;
  (* Kahn's algorithm settles an acyclic graph — every clean run's —
     in O(V + E): it peels off nodes left without predecessors until
     none remain.  Only a graph it cannot empty runs the DFS that
     names the cycle's node. *)
  let indeg = Array.make n 0 in
  Array.iter (List.iter (fun y -> indeg.(y) <- indeg.(y) + 1)) succs;
  let queue = Array.make n 0 and queued = ref 0 in
  let push y =
    queue.(!queued) <- y;
    incr queued
  in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then push i
  done;
  let head = ref 0 in
  while !head < !queued do
    List.iter
      (fun y ->
        indeg.(y) <- indeg.(y) - 1;
        if indeg.(y) = 0 then push y)
      succs.(queue.(!head));
    incr head
  done;
  if !queued < n then begin
    (* DFS cycle detection: nodes and successors in txid order, so the
       reported node is deterministic.  A node's successors are
       deduplicated with [mark] before the sort. *)
    let color = Array.make n `White in
    let mark = Array.make n (-1) in
    let rec distinct i acc = function
      | [] -> acc
      | y :: rest ->
          if mark.(y) = i then distinct i acc rest
          else begin
            mark.(y) <- i;
            distinct i (y :: acc) rest
          end
    in
    let cycle = ref None in
    let rec visit i =
      match color.(i) with
      | `Black -> ()
      | `Grey -> if !cycle = None then cycle := Some i
      | `White ->
          color.(i) <- `Grey;
          List.iter visit (List.sort Int.compare (distinct i [] succs.(i)));
          color.(i) <- `Black
    in
    for i = 0 to n - 1 do
      visit i
    done;
    match !cycle with
    | Some i ->
        txn_note a "serialization graph cycle through txn %s" txid_of.(i)
    | None -> ()
  end

let txn_violations a = a.txn_violations
let txn_decided_count a = Inttbl.length a.decided_w

(* ---------- liveness after heal ---------- *)

(** After a script that provably settles ({!Script.quiesces_at}), the
    cluster must make progress again: among the completions logged
    after the quiesce time, at least one must succeed.  [completions]
    is the run's chronological [(finished_at, ok)] log — one entry per
    single-key operation, or per transaction attempt (retries
    included) in a transaction run.  Vacuously [Ok] when the script
    never settles or nothing completes afterwards (the workload may
    simply have finished first). *)
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

let blocked_after_heal ~script ~blocked : (unit, string) result =
  match (Script.quiesces_at script, blocked) with
  | None, _ | Some _, [] -> Ok ()
  | Some _, _ :: _ ->
      Error
        (Fmt.str "paxos-commit left %d txn(s) blocked: %s"
           (List.length blocked) (String.concat "," blocked))
