//! The §6.3.1 class system as a user would use it: interfaces, inheritance,
//! virtual dispatch — all built from type reflection, none of it built into
//! the language.
//!
//! Run with: `cargo run --release -p terra-core --example class_shapes`

use terra_classes::ClassSession;

fn main() {
    let mut s = ClassSession::new().expect("load lib/javalike");
    s.exec(
        r#"
        local std = terralib.includec("stdlib.h")
        local C = terralib.includec("stdio.h")

        Drawable = J.interface { draw = {} -> {} }

        struct Shape { cx : double, cy : double }
        struct Square { side : double }
        struct Circle { radius : double }
        J.extends(Square, Shape)
        J.extends(Circle, Shape)
        J.implements(Square, Drawable)
        J.implements(Circle, Drawable)

        terra Shape:area() : double return 0.0 end
        terra Shape:describe() : {} C.printf("shape at (%g, %g)\n", self.cx, self.cy) end
        terra Square:area() : double return self.side * self.side end
        terra Square:draw() : {} C.printf("[] square, area %g\n", self:area()) end
        terra Circle:area() : double return 3.14159265 * self.radius * self.radius end
        terra Circle:draw() : {} C.printf("() circle, area %g\n", self:area()) end

        terra newsquare(side : double) : &Square
            var s = [&Square](std.malloc(sizeof(Square)))
            s:initclass()
            s.cx, s.cy, s.side = 0.0, 0.0, side
            return s
        end
        terra newcircle(r : double) : &Circle
            var c = [&Circle](std.malloc(sizeof(Circle)))
            c:initclass()
            c.cx, c.cy, c.radius = 1.0, 1.0, r
            return c
        end

        terra drawall(items : &&Drawable, n : int) : {}
            for i = 0, n do
                items[i]:draw()
            end
        end

        terra total_area_via_base(a : &Shape, b : &Shape) : double
            -- virtual dispatch through the base class
            return a:area() + b:area()
        end

        terra run() : double
            var sq = newsquare(3.0)
            var ci = newcircle(2.0)
            sq:describe()
            var items = [&&Drawable](std.malloc(2 * 8))
            items[0] = sq   -- class-to-interface conversion via __cast
            items[1] = ci
            drawall(items, 2)
            return total_area_via_base(sq, ci)
        end
        "#,
    )
    .expect("class definitions stage");
    let total = s.call_f64("run", &[]).expect("run");
    println!("total area via virtual dispatch = {total:.4}");
    assert!((total - (9.0 + std::f64::consts::PI * 4.0)).abs() < 1e-3);
}
