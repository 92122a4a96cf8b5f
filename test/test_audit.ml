(* The multi-key transaction audit (Harness.Check.txn_check): one
   hand-made history per violation kind, each asserting the exact
   violation strings (they render into Cluster.digest, so their wording
   and order are part of the golden surface), and a differential
   property pitting the indexed audit against a verbatim copy of the
   original quadratic one on random adversarial histories. *)

module Check = Harness.Check

type ev =
  | Decide of {
      txid : string;
      commit : bool;
      writes : (string * int * int) list;
    }
  | Ack of {
      txid : string;
      started : float;
      completed : float;
      reads : (string * int * int) list;
      writes : (string * int * int) list;
    }

(* A history names its transactions; the decision hook keys them by
   an int, so each name gets one, in order of first sight. *)
let feed a evs =
  let ids = Hashtbl.create 8 in
  let txid name =
    match Hashtbl.find_opt ids name with
    | Some id -> { Qc_util.Txid.id; name }
    | None ->
        let id = Hashtbl.length ids in
        Hashtbl.replace ids name id;
        { Qc_util.Txid.id; name }
  in
  List.iter
    (function
      | Decide { txid = name; commit; writes } ->
          Check.txn_decided a ~txid:(txid name) ~commit ~writes
      | Ack { txid; started; completed; reads; writes } ->
          Check.txn_committed a ~txid ~started ~now:completed ~reads ~writes)
    evs

(* violations oldest first *)
let audit evs =
  let a = Check.txn_audit () in
  feed a evs;
  Check.txn_check a;
  List.rev (Check.txn_violations a)

let decide ?(commit = true) txid writes = Decide { txid; commit; writes }

let ack ?(started = 0.0) ?(completed = 1.0) ?(reads = []) txid writes =
  Ack { txid; started; completed; reads; writes }

let check_audit name expect evs =
  Alcotest.(check (list string)) name expect (audit evs)

(* ---------- one planted anomaly per violation kind ---------- *)

let test_clean () =
  check_audit "a serial history is clean" []
    [
      decide "t1" [ ("x", 1, 10) ];
      ack "t1" [ ("x", 1, 10) ];
      decide "t2" [ ("y", 1, 20) ];
      ack ~started:2.0 ~completed:3.0 ~reads:[ ("x", 1, 10) ] "t2"
        [ ("y", 1, 20) ];
    ];
  (* aborts never enter the decided log *)
  check_audit "aborts are ignored" []
    [ decide ~commit:false "t1" [ ("x", 1, 10) ]; decide ~commit:false "t1" [] ]

let test_never_decided () =
  check_audit "acked but never decided"
    [ "acked txn t1 was never decided" ]
    [ ack "t1" [ ("x", 1, 10) ] ]

let test_writes_differ () =
  check_audit "acked writes differ from decided"
    [ "acked txn t1: acked writes differ from decided" ]
    [ decide "t1" [ ("x", 1, 10) ]; ack "t1" [ ("x", 1, 11) ] ]

let test_two_write_sets () =
  check_audit "decided with two write sets"
    [ "txn t1 decided with two write sets" ]
    [ decide "t1" [ ("x", 1, 10) ]; decide "t1" [ ("x", 2, 10) ] ]

let test_duplicate_version () =
  check_audit "duplicate version"
    [ "duplicate version 1 of x (txns t1 and t2)" ]
    [ decide "t2" [ ("x", 1, 20) ]; decide "t1" [ ("x", 1, 10) ] ]

let test_unknown_version () =
  check_audit "read at an unknown version"
    [ "txn t1 read x at unknown version 3" ]
    [ decide "t1" []; ack ~reads:[ ("x", 3, 30) ] "t1" [] ]

let test_corrupt_read () =
  check_audit "corrupt read"
    [ "corrupt txn read of x: vn 1 has 10, read 11" ]
    [
      decide "t1" [ ("x", 1, 10) ];
      ack "t1" [ ("x", 1, 10) ];
      decide "t2" [];
      ack ~started:2.0 ~completed:3.0 ~reads:[ ("x", 1, 11) ] "t2" [];
    ]

let test_unwritten_read () =
  check_audit "read of an unwritten key"
    [ "txn t1 read unwritten x as 5" ]
    [ decide "t1" []; ack ~reads:[ ("x", 0, 5) ] "t1" [] ]

let test_stale_read () =
  (* t2 starts once t1's commit was acked, yet reads the initial
     version *)
  check_audit "stale read"
    [ "stale txn read of x: vn 0 < committed vn 1" ]
    [
      decide "t1" [ ("x", 1, 10) ];
      ack ~completed:1.0 "t1" [ ("x", 1, 10) ];
      decide "t2" [];
      ack ~started:1.0 ~completed:2.0 ~reads:[ ("x", 0, 0) ] "t2" [];
    ];
  (* a commit acked after the read began does not make it stale *)
  check_audit "concurrent commits are not stale" []
    [
      decide "t1" [ ("x", 1, 10) ];
      ack ~completed:1.5 "t1" [ ("x", 1, 10) ];
      decide "t2" [];
      ack ~started:1.0 ~completed:2.0 ~reads:[ ("x", 0, 0) ] "t2" [];
    ]

let test_write_skew () =
  (* the classic write-skew: each reads what the other writes, both at
     the initial version — rw edges both ways *)
  check_audit "write-skew cycle"
    [ "serialization graph cycle through txn a" ]
    [
      decide "b" [ ("x", 1, 1) ];
      decide "a" [ ("y", 1, 1) ];
      ack ~started:0.0 ~completed:2.0 ~reads:[ ("x", 0, 0) ] "a"
        [ ("y", 1, 1) ];
      ack ~started:0.0 ~completed:2.0 ~reads:[ ("y", 0, 0) ] "b"
        [ ("x", 1, 1) ];
    ]

let test_order () =
  (* several kinds at once: the notes come out in the audit's pass
     order (the decision clash as it happens, then acked ⊆ decided,
     versions, and per read its validity before its recency — stale
     notes in acked order, reading t3's acked, not decided, writes) *)
  check_audit "pass order"
    [
      "txn t3 decided with two write sets";
      "acked txn t9 was never decided";
      "acked txn t3: acked writes differ from decided";
      "duplicate version 2 of x (txns t1 and t3)";
      "txn t4 read y at unknown version 7";
      "stale txn read of x: vn 0 < committed vn 3";
      "stale txn read of x: vn 0 < committed vn 2";
      "txn t4 read unwritten z as 1";
    ]
    [
      decide "t1" [ ("x", 2, 1) ];
      decide "t3" [ ("x", 2, 3) ];
      decide "t3" [ ("x", 3, 3) ];
      ack "t9" [];
      ack "t3" [ ("x", 3, 3) ];
      ack ~completed:0.5 "t1" [ ("x", 2, 1) ];
      decide "t4" [];
      ack ~started:1.0 ~completed:2.0
        ~reads:[ ("y", 7, 0); ("x", 0, 0); ("z", 0, 1) ]
        "t4" [];
    ]

(* ---------- differential property against the original audit ---------- *)

(* The original quadratic audit, copied verbatim (modulo the record
   prefix) as the oracle: the indexed rewrite must emit the same
   violations in the same order. *)
module Oracle = struct
  type txn_report = {
    t_txid : string;
    t_started : float;
    t_completed : float;
    t_reads : (string * int * int) list;
    t_writes : (string * int * int) list;
  }

  type txn_audit = {
    mutable acked : txn_report list;
    decided_w : (string, (string * int * int) list) Hashtbl.t;
    mutable txn_violations : string list;
  }

  let txn_audit () =
    { acked = []; decided_w = Hashtbl.create 64; txn_violations = [] }

  let txn_note a fmt =
    Fmt.kstr (fun s -> a.txn_violations <- s :: a.txn_violations) fmt

  let txn_decided a ~txid ~commit ~writes =
    if commit then
      match Hashtbl.find_opt a.decided_w txid with
      | None -> Hashtbl.replace a.decided_w txid writes
      | Some prior ->
          if prior <> writes then
            txn_note a "txn %s decided with two write sets" txid

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

  let txn_check a =
    let acked = List.rev a.acked in
    List.iter
      (fun r ->
        match Hashtbl.find_opt a.decided_w r.t_txid with
        | None -> txn_note a "acked txn %s was never decided" r.t_txid
        | Some w ->
            if w <> r.t_writes then
              txn_note a "acked txn %s: acked writes differ from decided"
                r.t_txid)
      acked;
    let versions : (string, (int * int * string) list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    let decided =
      (* lint: order-insensitive *)
      Hashtbl.fold (fun txid w acc -> (txid, w) :: acc) a.decided_w []
      |> List.sort (fun (x, _) (y, _) -> String.compare x y)
    in
    List.iter
      (fun (txid, writes) ->
        List.iter
          (fun (k, vn, v) ->
            let r =
              match Hashtbl.find_opt versions k with
              | Some r -> r
              | None ->
                  let r = ref [] in
                  Hashtbl.replace versions k r;
                  r
            in
            (match List.find_opt (fun (vn', _, _) -> vn' = vn) !r with
            | Some (_, _, other) ->
                txn_note a "duplicate version %d of %s (txns %s and %s)" vn k
                  other txid
            | None -> ());
            r := (vn, v, txid) :: !r)
          writes)
      decided;
    let writer k vn =
      match Hashtbl.find_opt versions k with
      | None -> None
      | Some r -> List.find_opt (fun (vn', _, _) -> vn' = vn) !r
    in
    List.iter
      (fun r ->
        List.iter
          (fun (k, vn, v) ->
            (if vn = 0 then begin
               if v <> 0 then
                 txn_note a "txn %s read unwritten %s as %d" r.t_txid k v
             end
             else
               match writer k vn with
               | None ->
                   txn_note a "txn %s read %s at unknown version %d" r.t_txid
                     k vn
               | Some (_, v', _) ->
                   if v' <> v then
                     txn_note a
                       "corrupt txn read of %s: vn %d has %d, read %d" k vn v'
                       v);
            List.iter
              (fun w ->
                if w.t_completed <= r.t_started then
                  List.iter
                    (fun (k', wvn, _) ->
                      if String.equal k' k && vn < wvn then
                        txn_note a
                          "stale txn read of %s: vn %d < committed vn %d" k vn
                          wvn)
                    w.t_writes)
              acked)
          r.t_reads)
      acked;
    let succs : (string, string list ref) Hashtbl.t = Hashtbl.create 64 in
    let nodes = List.map fst decided in
    List.iter (fun n -> Hashtbl.replace succs n (ref [])) nodes;
    let edge x y =
      if not (String.equal x y) then
        match Hashtbl.find_opt succs x with
        | Some r -> if not (List.exists (String.equal y) !r) then r := y :: !r
        | None -> ()
    in
    let keys =
      (* lint: order-insensitive *)
      Hashtbl.fold (fun k _ acc -> k :: acc) versions []
      |> List.sort String.compare
    in
    List.iter
      (fun k ->
        let chain =
          List.sort
            (fun (a', _, _) (b, _, _) -> Int.compare a' b)
            !(Hashtbl.find versions k)
        in
        let rec ww = function
          | (_, _, t1) :: ((_, _, t2) :: _ as rest) ->
              edge t1 t2;
              ww rest
          | _ -> ()
        in
        ww chain)
      keys;
    List.iter
      (fun r ->
        List.iter
          (fun (k, vn, _) ->
            (match writer k vn with
            | Some (_, _, w) -> edge w r.t_txid
            | None -> ());
            match Hashtbl.find_opt versions k with
            | None -> ()
            | Some vr ->
                List.iter
                  (fun (vn', _, w') -> if vn' > vn then edge r.t_txid w')
                  !vr)
          r.t_reads)
      acked;
    let color : (string, [ `Grey | `Black ]) Hashtbl.t = Hashtbl.create 64 in
    let cycle = ref None in
    let rec visit n =
      match Hashtbl.find_opt color n with
      | Some `Black -> ()
      | Some `Grey -> if !cycle = None then cycle := Some n
      | None ->
          Hashtbl.replace color n `Grey;
          (match Hashtbl.find_opt succs n with
          | Some r -> List.iter visit (List.sort String.compare !r)
          | None -> ());
          Hashtbl.replace color n `Black
    in
    List.iter visit nodes;
    match !cycle with
    | Some n -> txn_note a "serialization graph cycle through txn %s" n
    | None -> ()

  let run evs =
    let a = txn_audit () in
    List.iter
      (function
        | Decide { txid; commit; writes } -> txn_decided a ~txid ~commit ~writes
        | Ack { txid; started; completed; reads; writes } ->
            txn_committed a ~txid ~started ~now:completed ~reads ~writes)
      evs;
    txn_check a;
    List.rev a.txn_violations
end

(* Random adversarial histories over a small pool: few keys and
   versions (duplicate versions, ww/rw edges and cycles are common),
   txids whose string order differs from their numeric suffix order,
   re-decided and un-decided transactions, acked write sets that
   sometimes drift from the decided ones, and reads that are often
   current but also stale, corrupt, unknown or unwritten. *)
let txid_pool = [| "c0#t2"; "c0#t10"; "c1#t0"; "c10#t0"; "a"; "b"; "z" |]
let key_pool = [| "k0"; "k1"; "k10"; "k2" |]

let gen_history_of ~events ~vns : ev list QCheck.Gen.t =
  let open QCheck.Gen in
  let key = oneofa key_pool in
  let kvv ~vn = triple key vn (int_bound 2) in
  (* a write at version 0 never happens in a run, but the audit must
     still treat it as a version like any other *)
  let writes = list_size (int_bound 3) (kvv ~vn:(int_bound vns)) in
  let* base = array_size (return (Array.length txid_pool)) writes in
  let txn = int_bound (Array.length txid_pool - 1) in
  let drift i = frequency [ (4, return base.(i)); (1, writes) ] in
  let time = map float_of_int (int_bound 6) in
  let read =
    frequency
      [
        (* a version some base write set installs, with its value *)
        ( 4,
          let* i = txn in
          match base.(i) with
          | [] -> kvv ~vn:(return 0)
          | ws ->
              let* k, vn, v = oneofl ws in
              let* v = frequency [ (5, return v); (1, int_bound 2) ] in
              return (k, vn, v) );
        (* the initial version, almost always with its initial value *)
        (2, triple key (return 0) (frequency [ (5, return 0); (1, return 1) ]));
        (1, kvv ~vn:(int_bound (vns + 1)));
      ]
  in
  let ev =
    frequency
      [
        ( 2,
          let* i = txn in
          let* commit = frequency [ (5, return true); (1, return false) ] in
          let* w = drift i in
          return (Decide { txid = txid_pool.(i); commit; writes = w }) );
        ( 2,
          let* i = txn in
          let* started = time in
          let* d = time in
          let* reads = list_size (int_bound 3) read in
          let* w = drift i in
          return
            (Ack
               {
                 txid = txid_pool.(i);
                 started;
                 completed = started +. d;
                 reads;
                 writes = w;
               }) );
      ]
  in
  list_size (int_bound events) ev

let gen_history = gen_history_of ~events:16 ~vns:4

let pp_kvs =
  let pp_kv ppf (k, vn, v) = Fmt.pf ppf "%s,%d,%d" k vn v in
  Fmt.(brackets (list ~sep:semi (parens pp_kv)))

let pp_ev ppf = function
  | Decide { txid; commit; writes } ->
      Fmt.pf ppf "decide %s %b %a" txid commit pp_kvs writes
  | Ack { txid; started; completed; reads; writes } ->
      Fmt.pf ppf "ack %s [%g,%g] r=%a w=%a" txid started completed pp_kvs
        reads pp_kvs writes

let arb_history =
  QCheck.make gen_history
    ~print:(Fmt.str "%a" Fmt.(list ~sep:(any "@\n") pp_ev))
    ~shrink:QCheck.Shrink.list

let prop_matches_oracle =
  QCheck.Test.make ~count:2000 ~name:"indexed audit = quadratic oracle"
    arb_history (fun evs ->
      let got = audit evs and want = Oracle.run evs in
      if got = want then true
      else
        QCheck.Test.fail_reportf "got:@\n%a@\nwant:@\n%a"
          Fmt.(list ~sep:cut string) got
          Fmt.(list ~sep:cut string) want)

(* ---------- differential property against the per-key audit ---------- *)

(* The string-keyed audit with a per-key chain and vn table that the
   version-indexed one replaced, copied verbatim as the oracle: the
   same violations in the same order, on the same histories. *)
module Frozen = struct
  module Strtbl = Qc_util.Strtbl

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

  let run evs =
    let a = txn_audit () in
    List.iter
      (function
        | Decide { txid; commit; writes } -> txn_decided a ~txid ~commit ~writes
        | Ack { txid; started; completed; reads; writes } ->
            txn_committed a ~txid ~started ~now:completed ~reads ~writes)
      evs;
    txn_check a;
    List.rev (txn_violations a)
end

(* Long histories too, so a key's version index holds more than a few
   entries and the binary searches take several steps. *)
let arb_long_history =
  QCheck.make
    (gen_history_of ~events:80 ~vns:12)
    ~print:(Fmt.str "%a" Fmt.(list ~sep:(any "@\n") pp_ev))
    ~shrink:QCheck.Shrink.list

let prop_matches_frozen name arb =
  QCheck.Test.make ~count:2000 ~name arb (fun evs ->
      let got = audit evs and want = Frozen.run evs in
      if got = want then true
      else
        QCheck.Test.fail_reportf "got:@\n%a@\nwant:@\n%a"
          Fmt.(list ~sep:cut string) got
          Fmt.(list ~sep:cut string) want)

let contains s frag =
  let n = String.length frag and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = frag || go (i + 1)) in
  go 0

(* the generator really does reach every violation kind *)
let test_generator_coverage () =
  let rand = Random.State.make [| 0xa0d17 |] in
  let seen = Hashtbl.create 16 in
  let kind s =
    List.find_opt
      (fun (_, frag) -> contains s frag)
      [
        ("never", "never decided");
        ("differ", "differ from decided");
        ("two", "two write sets");
        ("dup", "duplicate version");
        ("unknown", "unknown version");
        ("corrupt", "corrupt txn read");
        ("unwritten", "read unwritten");
        ("stale", "stale txn read");
        ("cycle", "graph cycle");
      ]
  in
  for _ = 1 to 500 do
    List.iter
      (fun s ->
        match kind s with
        | Some (k, _) -> Hashtbl.replace seen k ()
        | None -> ())
      (Oracle.run (QCheck.Gen.generate1 ~rand gen_history))
  done;
  Alcotest.(check int) "all nine kinds generated" 9 (Hashtbl.length seen)

(* The audit's typed write-set equality agrees with polymorphic [=] on
   random write sets (a small key/version/value pool, so equal sets
   come up), on one physical list, and on lists sharing a tail. *)
let prop_same_writes =
  let ws =
    QCheck.(
      small_list
        (triple (oneofl [ "k0"; "k1"; "k2" ]) (int_range 0 2) (int_range 0 2)))
  in
  QCheck.Test.make ~count:1000 ~name:"same_writes agrees with ="
    QCheck.(triple ws ws ws)
    (fun (a, b, tl) ->
      let same = Check.same_writes in
      same a b = (a = b)
      && same a a
      && same (a @ tl) (b @ tl) = (a = b)
      && same (List.rev_append a tl) (List.rev_append b tl)
         = (List.rev_append a tl = List.rev_append b tl))

(* ---------- the single-key audit ---------- *)

(* A verbatim copy of the single-key audit before it learned to stop
   at the first older write: every write scans the key's whole history
   for a version at least as high, and every read scans it for the
   newest write completed by its start. *)
module Reference_audit = struct
  type entry = { vn : int; value : int; completed_at : float }
  type t = { writes : (string, entry list) Hashtbl.t; mutable v : string list }

  let create () = { writes = Hashtbl.create 8; v = [] }
  let note a fmt = Fmt.kstr (fun s -> a.v <- s :: a.v) fmt
  let history a key = Option.value ~default:[] (Hashtbl.find_opt a.writes key)

  let rec newest_by started m = function
    | [] -> m
    | e :: rest ->
        newest_by started
          (if e.completed_at <= started && e.vn > m then e.vn else m)
          rest

  let rec write_at vn = function
    | [] -> None
    | e :: rest -> if e.vn = vn then Some e else write_at vn rest

  let read_ok a ~key ~started ~vn ~value =
    let writes = history a key in
    let newest = newest_by started 0 writes in
    if vn < newest then
      note a "stale read of %s: returned vn %d < completed vn %d" key vn newest;
    if vn > 0 then
      match write_at vn writes with
      | Some e when e.value <> value ->
          note a "corrupt read of %s: vn %d has %d, read %d" key vn e.value
            value
      | _ -> ()

  let write_ok a ~key ~vn ~value ~now =
    let prev = history a key in
    List.iter
      (fun e ->
        if e.vn >= vn then
          note a "non-monotonic write to %s: vn %d after %d" key vn e.vn)
      prev;
    Hashtbl.replace a.writes key ({ vn; value; completed_at = now } :: prev)
end

type kv_ev =
  | W of { key : string; vn : int; value : int; now : float }
  | R of { key : string; started : float; vn : int; value : int }

(* Histories that mostly follow the single-writer discipline (rising
   versions, rising completion times) and sometimes break it: equal
   and falling versions, completions out of order, versions <= 0, and
   reads of any version with any value. *)
let kv_history_gen =
  let open QCheck.Gen in
  let key = oneofl [ "a"; "b"; "c" ] in
  let time = map (fun i -> float_of_int i /. 2.0) (0 -- 40) in
  int_range 0 60 >>= fun n ->
  let rec go i clock vn acc =
    if i = n then return (List.rev acc)
    else
      frequency
        [
          (* a well-behaved write: next version, later completion *)
          ( 5,
            map2
              (fun k dt ->
                (W { key = k; vn = vn + 1; value = vn + 1; now = clock +. dt },
                 clock +. dt, vn + 1))
              key (0 -- 3 >|= float_of_int) );
          (* a misbehaving write: any version, any time *)
          ( 2,
            map3
              (fun k v t -> (W { key = k; vn = v; value = v * 7; now = t }, clock, vn))
              key (-2 -- 12) time );
          (* a read, started at any time, returning any version *)
          ( 5,
            map4
              (fun k t v bad ->
                (R { key = k; started = t; vn = v; value = (if bad then v + 1 else v) },
                 clock, vn))
              key time (-1 -- 14) (frequency [ (4, return false); (1, return true) ]) );
        ]
      >>= fun (ev, clock, vn) -> go (i + 1) clock vn (ev :: acc)
  in
  go 0 0.0 0 []

let prop_single_key_audit_matches_reference =
  QCheck.Test.make ~count:1500
    ~name:"single-key audit reports what the full-scan audit reports"
    (QCheck.make kv_history_gen)
    (fun evs ->
      let a = Check.audit () and r = Reference_audit.create () in
      List.iter
        (function
          | W { key; vn; value; now } ->
              Check.write_ok a ~key ~vn ~value ~now;
              Reference_audit.write_ok r ~key ~vn ~value ~now
          | R { key; started; vn; value } ->
              Check.read_ok a ~key ~started ~vn ~value;
              Reference_audit.read_ok r ~key ~started ~vn ~value)
        evs;
      Check.violations a = r.Reference_audit.v)

let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let suites =
  [
    ( "harness.txn_audit",
      [
        Alcotest.test_case "clean histories" `Quick test_clean;
        Alcotest.test_case "acked but never decided" `Quick test_never_decided;
        Alcotest.test_case "acked writes differ" `Quick test_writes_differ;
        Alcotest.test_case "decided with two write sets" `Quick
          test_two_write_sets;
        Alcotest.test_case "duplicate version" `Quick test_duplicate_version;
        Alcotest.test_case "unknown version" `Quick test_unknown_version;
        Alcotest.test_case "corrupt read" `Quick test_corrupt_read;
        Alcotest.test_case "read of an unwritten key" `Quick
          test_unwritten_read;
        Alcotest.test_case "stale read" `Quick test_stale_read;
        Alcotest.test_case "write-skew cycle" `Quick test_write_skew;
        Alcotest.test_case "violation order" `Quick test_order;
        Alcotest.test_case "generator reaches every kind" `Quick
          test_generator_coverage;
        qcheck prop_matches_oracle;
        qcheck
          (prop_matches_frozen "indexed audit = per-key audit" arb_history);
        qcheck
          (prop_matches_frozen "indexed audit = per-key audit, long histories"
             arb_long_history);
        qcheck prop_same_writes;
      ] );
    ( "harness.audit",
      [ qcheck prop_single_key_audit_matches_reference ] );
  ]
