#include "radar/scene.hpp"

namespace bis::radar {

const std::vector<Scene::ClutterSpec>& Scene::office_clutter_layout() {
  static const std::vector<ClutterSpec> layout = {
      {1.1, -2.0, 0.4}, {2.7, 0.0, 1.7},  {4.3, -4.0, 3.0},
      {6.2, -1.0, 5.1}, {8.5, -6.0, 0.9},
  };
  return layout;
}

}  // namespace bis::radar
