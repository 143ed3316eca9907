(* Expression typing rules, including the decimal scale algebra and the
   rejection cases, plus plan-level output typing. *)

open Qcomp_plan

let check = Alcotest.check

let sqlty = Alcotest.testable (Fmt.of_to_string Sqlty.to_string) Sqlty.equal

let input = [| Sqlty.Int32; Sqlty.Int64; Sqlty.Decimal 2; Sqlty.Str; Sqlty.Date; Sqlty.Bool; Sqlty.Decimal 4 |]

let ty e = Expr.type_of input e

let expr_cases =
  [
    Alcotest.test_case "columns take input types" `Quick (fun () ->
        check sqlty "c0" Sqlty.Int32 (ty (Expr.col 0));
        check sqlty "c3" Sqlty.Str (ty (Expr.col 3)));
    Alcotest.test_case "column out of range" `Quick (fun () ->
        match ty (Expr.col 99) with
        | exception Expr.Type_error _ -> ()
        | _ -> Alcotest.fail "expected type error");
    Alcotest.test_case "integer widening" `Quick (fun () ->
        check sqlty "i32+i32" Sqlty.Int32 Expr.(ty (col 0 +% col 0));
        check sqlty "i32+i64" Sqlty.Int64 Expr.(ty (col 0 +% col 1));
        check sqlty "i64+i32" Sqlty.Int64 Expr.(ty (col 1 +% col 0)));
    Alcotest.test_case "decimal dominates integers" `Quick (fun () ->
        check sqlty "dec+int" (Sqlty.Decimal 2) Expr.(ty (col 2 +% col 0));
        check sqlty "int*dec" (Sqlty.Decimal 2) Expr.(ty (col 0 *% col 2)));
    Alcotest.test_case "decimal scale arithmetic" `Quick (fun () ->
        check sqlty "mul adds scales" (Sqlty.Decimal 6) Expr.(ty (col 2 *% col 6));
        check sqlty "add keeps max scale" (Sqlty.Decimal 4) Expr.(ty (col 2 +% col 6));
        check sqlty "div subtracts" (Sqlty.Decimal 2) Expr.(ty (col 6 /% col 2)));
    Alcotest.test_case "date arithmetic" `Quick (fun () ->
        check sqlty "date+int" Sqlty.Date Expr.(ty (col 4 +% int32 30));
        check sqlty "date-date" Sqlty.Int32 Expr.(ty (col 4 -% col 4));
        match Expr.(ty (col 4 *% int32 2)) with
        | exception Expr.Type_error _ -> ()
        | _ -> Alcotest.fail "date multiplication must fail");
    Alcotest.test_case "comparisons yield bool and mix numerics" `Quick (fun () ->
        check sqlty "i32<i64" Sqlty.Bool Expr.(ty (col 0 <% col 1));
        check sqlty "dec=dec" Sqlty.Bool Expr.(ty (col 2 =% col 6));
        check sqlty "str=str" Sqlty.Bool Expr.(ty (col 3 =% str "x"));
        match Expr.(ty (col 3 <% col 0)) with
        | exception Expr.Type_error _ -> ()
        | _ -> Alcotest.fail "str vs int comparison must fail");
    Alcotest.test_case "boolean connectives demand bools" `Quick (fun () ->
        check sqlty "and" Sqlty.Bool Expr.(ty ((col 0 <% col 1) &&% col 5));
        match Expr.(ty (col 0 &&% col 5)) with
        | exception Expr.Type_error _ -> ()
        | _ -> Alcotest.fail "int as bool must fail");
    Alcotest.test_case "like needs strings" `Quick (fun () ->
        check sqlty "like" Sqlty.Bool (ty (Expr.Like (Expr.col 3, "%a%")));
        match ty (Expr.Like (Expr.col 0, "%a%")) with
        | exception Expr.Type_error _ -> ()
        | _ -> Alcotest.fail "like on int must fail");
    Alcotest.test_case "case arms join numeric types" `Quick (fun () ->
        let e =
          Expr.Case
            ( [ (Expr.(col 5), Expr.dec ~scale:2 100) ],
              Expr.dec ~scale:4 0 )
        in
        check sqlty "joined scale" (Sqlty.Decimal 4) (ty e));
    Alcotest.test_case "case arms: int and string disagree" `Quick (fun () ->
        let e = Expr.Case ([ (Expr.col 5, Expr.int32 1) ], Expr.str "x") in
        match ty e with
        | exception Expr.Type_error _ -> ()
        | _ -> Alcotest.fail "expected type error");
    Alcotest.test_case "cast overrides" `Quick (fun () ->
        check sqlty "cast" Sqlty.Int64 (ty (Expr.Cast (Expr.col 0, Sqlty.Int64))));
    Alcotest.test_case "used_cols collects all references" `Quick (fun () ->
        let e = Expr.(Between (col 2, col 0 +% col 1, dec ~scale:2 10)) in
        check Alcotest.(list int) "cols" [ 0; 1; 2 ]
          (List.sort_uniq compare (Expr.used_cols e [])));
    Alcotest.test_case "map_cols rewrites" `Quick (fun () ->
        let e = Expr.(col 1 +% col 2) in
        let e' = Expr.map_cols (fun i -> i + 10) e in
        check Alcotest.(list int) "shifted" [ 11; 12 ]
          (List.sort_uniq compare (Expr.used_cols e' [])));
  ]

let catalog : Algebra.catalog =
  [
    ( "t",
      Qcomp_storage.Schema.make "t"
        [
          ("id", Qcomp_storage.Schema.Int64);
          ("grp", Qcomp_storage.Schema.Int32);
          ("amt", Qcomp_storage.Schema.Decimal 2);
          ("tag", Qcomp_storage.Schema.Str);
        ] );
    ( "d",
      Qcomp_storage.Schema.make "d"
        [ ("k", Qcomp_storage.Schema.Int32); ("name", Qcomp_storage.Schema.Str) ] );
  ]

let plan_cases =
  [
    Alcotest.test_case "scan output types" `Quick (fun () ->
        let tys = Algebra.output_tys catalog (Algebra.Scan { table = "t"; filter = None }) in
        check Alcotest.int "4 cols" 4 (Array.length tys);
        check sqlty "amt" (Sqlty.Decimal 2) tys.(2));
    Alcotest.test_case "project reshapes" `Quick (fun () ->
        let p =
          Algebra.Project
            { input = Algebra.Scan { table = "t"; filter = None };
              exprs = Expr.[ col 2 *% col 2; col 0 ] }
        in
        let tys = Algebra.output_tys catalog p in
        check sqlty "squared scale" (Sqlty.Decimal 4) tys.(0);
        check sqlty "id" Sqlty.Int64 tys.(1));
    Alcotest.test_case "join output is probe ++ build" `Quick (fun () ->
        let p =
          Algebra.Hash_join
            {
              build = Algebra.Scan { table = "d"; filter = None };
              probe = Algebra.Scan { table = "t"; filter = None };
              build_keys = [ Expr.col 0 ];
              probe_keys = [ Expr.col 1 ];
            }
        in
        let tys = Algebra.output_tys catalog p in
        check Alcotest.int "6 cols" 6 (Array.length tys);
        check sqlty "probe first" Sqlty.Int64 tys.(0);
        check sqlty "build name last" Sqlty.Str tys.(5));
    Alcotest.test_case "group_by output = keys ++ aggs" `Quick (fun () ->
        let p =
          Algebra.Group_by
            {
              input = Algebra.Scan { table = "t"; filter = None };
              keys = [ Expr.col 1 ];
              aggs = [ Algebra.Count_star; Algebra.Sum (Expr.col 2); Algebra.Avg (Expr.col 2) ];
            }
        in
        let tys = Algebra.output_tys catalog p in
        check Alcotest.int "4 cols" 4 (Array.length tys);
        check sqlty "key" Sqlty.Int32 tys.(0);
        check sqlty "count is int64" Sqlty.Int64 tys.(1));
    Alcotest.test_case "min/max over a string column rejected" `Quick
      (fun () ->
        let group agg =
          Algebra.Group_by
            {
              input = Algebra.Scan { table = "t"; filter = None };
              keys = [ Expr.col 1 ];
              aggs = [ agg ];
            }
        in
        List.iter
          (fun agg ->
            match Algebra.output_tys catalog (group agg) with
            | exception Algebra.Plan_error _ -> ()
            | _ -> Alcotest.fail "expected plan error")
          [ Algebra.Min (Expr.col 3); Algebra.Max (Expr.col 3) ];
        let tys = Algebra.output_tys catalog (group (Algebra.Min (Expr.col 1))) in
        check sqlty "min over int32 still typed" Sqlty.Int32 tys.(1));
    Alcotest.test_case "unknown table rejected" `Quick (fun () ->
        match Algebra.output_tys catalog (Algebra.Scan { table = "zzz"; filter = None }) with
        | exception Algebra.Plan_error _ -> ()
        | _ -> Alcotest.fail "expected plan error");
    Alcotest.test_case "operator counting" `Quick (fun () ->
        let p =
          Algebra.Limit
            {
              input =
                Algebra.Order_by
                  {
                    input = Algebra.Scan { table = "t"; filter = None };
                    keys = [ (Expr.col 0, Algebra.Asc) ];
                    limit = None;
                  };
              n = 5;
            }
        in
        check Alcotest.int "3 ops" 3 (Algebra.num_operators p));
  ]

let suite = expr_cases @ plan_cases
