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

let feed a evs =
  List.iter
    (function
      | Decide { txid; commit; writes } ->
          Check.txn_decided a ~txid ~commit ~writes
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

let gen_history : ev list QCheck.Gen.t =
  let open QCheck.Gen in
  let key = oneofa key_pool in
  let kvv ~vn = triple key vn (int_bound 2) in
  (* a write at version 0 never happens in a run, but the audit must
     still treat it as a version like any other *)
  let writes = list_size (int_bound 3) (kvv ~vn:(int_bound 4)) in
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
        (1, kvv ~vn:(int_bound 5));
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
  list_size (int_bound 16) ev

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
        qcheck prop_same_writes;
      ] );
  ]
